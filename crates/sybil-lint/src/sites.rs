//! Leaf-pattern sites: the one token scan every site rule reads.
//!
//! A *site* is a token shape that means something by itself —
//! `Instant::now`, `env::var`, `fs::write`, `thread::spawn`, `Mutex`,
//! `thread_rng`, `.unwrap()`, `x as u32`, `Vec::new`, `.push(…)`,
//! `.lock()` — found by one pass over a file's tokens ([`scan`]). The
//! rule table in [`crate::rules`] says which kinds each code judges and
//! in what scope; nothing else in the crate looks for these tokens.
//!
//! Two kinds need their enclosing function, so the scan takes the parsed
//! body spans: a growth site (`v.push(…)`) is dropped when the same
//! function also drains the receiver — the recycled-scratch idiom — and
//! a computed index (`v[i + 1]`) counts only in a function with no
//! bounds-guard evidence at all.

use crate::lexer::{TokKind, Token};
use crate::parser::FnDef;

/// What a [`Site`] is evidence of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SiteKind {
    /// `Instant::now`, `SystemTime`, `UNIX_EPOCH`.
    WallClock,
    /// `env::var`, `env::args`, … (the `std::env` surface).
    Env,
    /// `thread::current()`.
    ThreadId,
    /// `fs::read*`, `File::open`, `io::stdin()`.
    IoRead,
    /// `fs::write`/`create*`/`remove*`/`rename`, `File::create`, stdout,
    /// stderr, the `print!` family.
    IoWrite,
    /// `thread::spawn`, `thread::scope`.
    Spawn,
    /// `Mutex`, `RwLock`, `Condvar`, `mpsc`, `Atomic*`.
    ThreadPrim,
    /// `thread_rng`, `OsRng`, `from_entropy`, `getrandom`, `rand::random`.
    Entropy,
    /// `.unwrap()`, `.expect(…)`.
    PanicCall,
    /// `panic!`, `todo!`, `unimplemented!`, `unreachable!` (the `assert!`
    /// family is not counted).
    PanicMacro,
    /// `v[i + 1]` — a computed index in a function with no guard evidence.
    PanicIndex,
    /// `expr as u8|u16|u32|i8|i16|i32`.
    Cast,
    /// Container constructors, `vec!`, `format!`, `.clone()`, `.collect()`, ….
    Alloc,
    /// `.push`/`.insert`/`.extend`… on a receiver its function never drains.
    Growth,
    /// `.lock()`, `.recv()`, `.recv_timeout()`, `.wait()`, `thread::sleep`.
    Blocking,
    /// A call that closes a call-graph cycle; seeded by
    /// [`crate::costs::recursion_sites`], not by the token scan.
    Recursion,
}

impl SiteKind {
    /// `(name, verb)`: the parenthetical in a message (`` `fs::write` (IO
    /// write) ``) and the verb phrase of the last trace step (`f performs
    /// IO write via …`).
    pub(crate) fn words(self) -> (&'static str, &'static str) {
        match self {
            SiteKind::WallClock => ("wall-clock read", "reads the wall clock via"),
            SiteKind::Env => ("environment read", "reads the environment via"),
            SiteKind::ThreadId => ("thread-id read", "reads the thread id via"),
            SiteKind::IoRead => ("IO read", "performs IO read via"),
            SiteKind::IoWrite => ("IO write", "performs IO write via"),
            SiteKind::Spawn => ("thread spawn", "spawns a thread via"),
            SiteKind::ThreadPrim => ("raw threading primitive", "shares state via"),
            SiteKind::Entropy => ("entropy-based RNG", "draws entropy via"),
            SiteKind::PanicCall => ("panic", "panics via"),
            SiteKind::PanicMacro => ("panic", "panics with"),
            SiteKind::PanicIndex => ("unguarded index", "may panic on unguarded index"),
            SiteKind::Cast => ("truncating cast", "truncates via"),
            SiteKind::Alloc => ("allocation", "allocates via"),
            SiteKind::Growth => ("monotonic collection growth", "grows a collection via"),
            SiteKind::Blocking => ("blocking acquisition", "blocks via"),
            SiteKind::Recursion => ("recursion", "recurses via"),
        }
    }
}

/// One leaf pattern at one place.
#[derive(Clone, Debug)]
pub(crate) struct Site {
    /// What the pattern is evidence of.
    pub kind: SiteKind,
    /// The pattern the way messages quote it (`Instant::now()`,
    /// `env::var`, `entries.push(…)`, `as u32`).
    pub what: String,
    /// Token index of the identifying token — tested against function
    /// bodies and loop spans.
    pub tok: usize,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl Site {
    /// The site as a message names it: `` `fs::write` ``, or with the
    /// kind in front where the token alone says too little (`` raw
    /// threading primitive `Mutex` ``).
    pub(crate) fn quoted(&self) -> String {
        match self.kind {
            SiteKind::ThreadPrim | SiteKind::Entropy => {
                format!("{} `{}`", self.kind.words().0, self.what)
            }
            _ => format!("`{}`", self.what),
        }
    }
}

/// `std::env` functions that read (or mutate, which implies reading for
/// any later reader) the process environment.
const ENV_FNS: [&str; 12] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "args",
    "args_os",
    "current_dir",
    "current_exe",
    "temp_dir",
    "home_dir",
    "set_var",
    "remove_var",
];

/// `std::fs` functions that read the filesystem.
const FS_READ_FNS: [&str; 7] = [
    "read",
    "read_to_string",
    "read_dir",
    "read_link",
    "metadata",
    "canonicalize",
    "symlink_metadata",
];

/// `std::fs` functions that write the filesystem.
const FS_WRITE_FNS: [&str; 9] = [
    "write",
    "create_dir",
    "create_dir_all",
    "remove_file",
    "remove_dir",
    "remove_dir_all",
    "rename",
    "copy",
    "set_permissions",
];

/// `print`-family macros (stdout/stderr writers).
const PRINT_MACROS: [&str; 5] = ["println", "print", "eprintln", "eprint", "dbg"];

const PANIC_MACROS: [&str; 4] = ["panic", "todo", "unimplemented", "unreachable"];

/// Container types whose `new`/`with_capacity` constructors allocate (or
/// will on first growth — the arc of a fresh `Vec::new` inside a hot
/// loop always ends in `grow`).
const ALLOC_TYPES: [&str; 10] = [
    "Vec", "VecDeque", "String", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Box", "Rc", "Arc",
];

/// Method calls that allocate their result.
const ALLOC_METHODS: [&str; 6] = [
    "clone",
    "collect",
    "to_string",
    "to_owned",
    "to_vec",
    "into_owned",
];

/// Method calls that grow a collection (sites until a drain on the same
/// receiver balances them).
const GROWTH_METHODS: [&str; 7] = [
    "push",
    "push_back",
    "push_front",
    "insert",
    "extend",
    "extend_from_slice",
    "append",
];

/// Method calls that shrink or recycle a collection. Any receiver drained
/// in a function balances every growth on the same receiver there.
const DRAIN_METHODS: [&str; 9] = [
    "clear",
    "drain",
    "truncate",
    "pop",
    "pop_front",
    "pop_back",
    "remove",
    "retain",
    "split_off",
];

/// Method calls that block the calling thread until another party acts.
const BLOCKING_METHODS: [&str; 4] = ["lock", "recv", "recv_timeout", "wait"];

/// Narrow integer types an `as` cast can silently truncate id/count
/// values into. Widening targets (`u64`, `usize`, `f64`, …) never count.
const NARROW_TARGETS: [&str; 6] = ["u8", "u16", "u32", "i8", "i16", "i32"];

/// Bodies containing any of these identifiers are considered
/// bounds-guarded, suppressing [`SiteKind::PanicIndex`]. Deliberately
/// broad: the indexing arm only exists to catch *completely* unguarded
/// accessors.
const GUARD_IDENTS: [&str; 14] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "len",
    "get",
    "get_mut",
    "min",
    "clamp",
    "position",
    "is_empty",
    "resize",
];

/// Keywords that may directly precede `[` without the bracket being an
/// index expression (`for x in [...]`, `return [...]`, `&mut [...]`).
const EXPR_KEYWORDS: [&str; 10] = [
    "in", "return", "if", "else", "match", "break", "mut", "ref", "move", "const",
];

/// Is token `i` the last segment of a `qual::…::i` path whose segment
/// immediately before it is `qual`? Matches both `env::var` and
/// `std::env::var` (only the adjacent qualifier is checked).
fn path_prefixed(src: &str, toks: &[Token], i: usize, qual: &str) -> bool {
    matches!(
        i.checked_sub(3).and_then(|j| toks.get(j..i)),
        Some([q, c1, c2]) if q.is_ident(src, qual) && c1.is_punct(b':') && c2.is_punct(b':')
    )
}

/// The per-function part of the scan: what is held back until the body
/// closes and the whole function has been seen.
#[derive(Default)]
struct Body<'s> {
    /// Growth sites with their receiver (`None`: not a plain identifier,
    /// so nothing can balance it).
    growth: Vec<(Site, Option<&'s str>)>,
    /// Receivers some drain method was called on.
    drained: Vec<&'s str>,
    /// Computed-index sites, kept only if the body shows no guard.
    index: Vec<Site>,
    guarded: bool,
}

impl Body<'_> {
    fn close(&mut self, out: &mut Vec<Site>) {
        let drained = std::mem::take(&mut self.drained);
        out.extend(
            self.growth
                .drain(..)
                .filter(|(_, recv)| recv.is_none_or(|r| !drained.contains(&r)))
                .map(|(site, _)| site),
        );
        if !self.guarded {
            out.append(&mut self.index);
        }
        self.index.clear();
        self.guarded = false;
    }
}

/// Every site in one file's non-test code, in token order. `fns` are the
/// file's parsed functions (body spans ascending and disjoint); growth
/// and index sites exist only inside one.
pub(crate) fn scan(
    src: &str,
    toks: &[Token],
    in_test: &dyn Fn(u32) -> bool,
    fns: &[FnDef],
) -> Vec<Site> {
    let mut out: Vec<Site> = Vec::new();
    let mut body = Body::default();
    let mut next_fn = 0; // first function whose body has not closed yet
    for (i, t) in toks.iter().enumerate() {
        let span = fns.get(next_fn).map(|d| d.body);
        if span.is_some_and(|(_, close)| i == close) {
            body.close(&mut out);
            next_fn += 1;
            continue;
        }
        if in_test(t.line) {
            continue;
        }
        let in_body = span.is_some_and(|(open, _)| i > open);
        let site = |kind: SiteKind, what: String| Site {
            kind,
            what,
            tok: i,
            line: t.line,
            col: t.col,
        };
        if in_body && t.is_punct(b'[') {
            if let Some(what) = computed_index(src, toks, i) {
                body.index
                    .push(site(SiteKind::PanicIndex, format!("{what}[…]")));
            }
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        let text = t.text(src);
        if in_body && GUARD_IDENTS.contains(&text) {
            body.guarded = true;
        }
        let next_is = |ch: u8| toks.get(i + 1).is_some_and(|n| n.is_punct(ch));
        let after = |qual: &str| path_prefixed(src, toks, i, qual);
        let method = i > 0 && toks[i - 1].is_punct(b'.');
        let found = match text {
            // Wall clock. `Instant` alone is just a type mention (a
            // parameter, a stored field); only the `now` constructor —
            // and the ambient `SystemTime`/`UNIX_EPOCH` sources, which
            // have no injected form — observe the clock.
            "now" if after("Instant") => site(SiteKind::WallClock, "Instant::now()".into()),
            "SystemTime" | "UNIX_EPOCH" => site(SiteKind::WallClock, text.into()),
            _ if ENV_FNS.contains(&text) && after("env") => {
                site(SiteKind::Env, format!("env::{text}"))
            }
            "current" if after("thread") && next_is(b'(') => {
                site(SiteKind::ThreadId, "thread::current()".into())
            }
            _ if FS_READ_FNS.contains(&text) && after("fs") => {
                site(SiteKind::IoRead, format!("fs::{text}"))
            }
            _ if FS_WRITE_FNS.contains(&text) && after("fs") => {
                site(SiteKind::IoWrite, format!("fs::{text}"))
            }
            "open" if after("File") && next_is(b'(') => site(SiteKind::IoRead, "File::open".into()),
            "create" if after("File") && next_is(b'(') => {
                site(SiteKind::IoWrite, "File::create".into())
            }
            "stdin" if after("io") && next_is(b'(') => site(SiteKind::IoRead, "io::stdin()".into()),
            "stdout" | "stderr" if after("io") && next_is(b'(') => {
                site(SiteKind::IoWrite, format!("io::{text}()"))
            }
            _ if PRINT_MACROS.contains(&text) && next_is(b'!') => {
                site(SiteKind::IoWrite, format!("{text}!"))
            }
            "spawn" | "scope" if after("thread") => {
                site(SiteKind::Spawn, format!("thread::{text}"))
            }
            "Mutex" | "RwLock" | "Condvar" | "mpsc" => site(SiteKind::ThreadPrim, text.into()),
            _ if text.starts_with("Atomic") && text.len() > 6 => {
                site(SiteKind::ThreadPrim, text.into())
            }
            "thread_rng" | "OsRng" | "from_entropy" | "getrandom" => {
                site(SiteKind::Entropy, text.into())
            }
            "random" if after("rand") => site(SiteKind::Entropy, text.into()),
            _ if PANIC_MACROS.contains(&text) && next_is(b'!') => {
                site(SiteKind::PanicMacro, format!("{text}!"))
            }
            "unwrap" | "expect" if method && next_is(b'(') => {
                site(SiteKind::PanicCall, format!(".{text}()"))
            }
            // Constructors on allocating containers: `Vec::new()`,
            // `HashMap::with_capacity(n)`, `Box::new(v)`, ….
            "new" | "with_capacity" if next_is(b'(') => {
                match ALLOC_TYPES.iter().find(|q| after(q)) {
                    Some(qual) => site(SiteKind::Alloc, format!("{qual}::{text}")),
                    None => continue,
                }
            }
            "vec" if next_is(b'!') => site(SiteKind::Alloc, "vec![…]".into()),
            "format" if next_is(b'!') => site(SiteKind::Alloc, "format!(…)".into()),
            // `.collect::<Vec<_>>()` carries a turbofish, so `(` or `::`
            // both count.
            _ if ALLOC_METHODS.contains(&text) && method && (next_is(b'(') || next_is(b':')) => {
                site(SiteKind::Alloc, format!(".{text}()"))
            }
            // Growth and drain, matched by receiver: the ident before
            // the `.` (the field for `self.q.push(…)`); a non-ident
            // receiver (`)…].push`) stays unmatched and conservative.
            _ if GROWTH_METHODS.contains(&text) && method && next_is(b'(') && in_body => {
                let recv = receiver(src, toks, i).filter(|&r| r != "self");
                let what = format!("{}.{text}(…)", recv.unwrap_or("<expr>"));
                body.growth.push((site(SiteKind::Growth, what), recv));
                continue;
            }
            _ if DRAIN_METHODS.contains(&text) && method && next_is(b'(') && in_body => {
                body.drained.extend(receiver(src, toks, i));
                continue;
            }
            _ if BLOCKING_METHODS.contains(&text) && method && next_is(b'(') => {
                site(SiteKind::Blocking, format!(".{text}()"))
            }
            "sleep" if after("thread") && next_is(b'(') => {
                site(SiteKind::Blocking, "thread::sleep".into())
            }
            "as" => match toks.get(i + 1).map(|n| n.text(src)) {
                Some(target) if NARROW_TARGETS.contains(&target) => {
                    site(SiteKind::Cast, format!("as {target}"))
                }
                _ => continue,
            },
            _ => continue,
        };
        out.push(found);
    }
    body.close(&mut out);
    out.sort_by_key(|s| s.tok);
    out
}

/// The receiver of the method call at token `i` (`recv.m(…)` or
/// `path.to.recv.m(…)` → `recv`), if it is a plain identifier.
fn receiver<'s>(src: &'s str, toks: &[Token], i: usize) -> Option<&'s str> {
    let r = &toks[i.checked_sub(2)?];
    (r.kind == TokKind::Ident).then(|| r.text(src))
}

/// For the `[` at token `i`: the indexed name when this is an index
/// expression whose index is *computed* (arithmetic inside the brackets —
/// the off-by-one class). Plain `v[i]` lookups are the NodeId-indexing
/// idiom whose bounds the container's constructor established; counting
/// them would drown the report. `#[…]` attributes are excluded by the
/// previous-token check; a keyword before `[` means an array literal.
fn computed_index(src: &str, toks: &[Token], i: usize) -> Option<String> {
    let prev = &toks[i.checked_sub(1)?];
    let indexes = matches!(
        prev.kind,
        TokKind::Ident | TokKind::Punct(b')') | TokKind::Punct(b']')
    ) && !EXPR_KEYWORDS.iter().any(|k| prev.is_ident(src, k));
    if !indexes {
        return None;
    }
    let mut depth = 1;
    for t in toks.iter().skip(i + 1) {
        match t.kind {
            TokKind::Punct(b'[') => depth += 1,
            TokKind::Punct(b']') => depth -= 1,
            TokKind::Punct(b'+' | b'-' | b'*' | b'/' | b'%') if depth == 1 => {
                return Some(match prev.kind {
                    TokKind::Ident => prev.text(src).to_string(),
                    _ => "<expr>".to_string(),
                });
            }
            _ => {}
        }
        if depth == 0 {
            break;
        }
    }
    None
}
