//! The `sybil-lint` CLI.
//!
//! ```text
//! sybil-lint --workspace [--format human|json] [--root DIR]
//!            [--allowlist FILE | --no-allowlist] [--fix-allowlist]
//!            [--list-rules] [--explain CODE] [PATH...]
//! ```
//!
//! `--workspace` runs every rule; explicit `PATH` arguments alone run
//! the per-file rules and the site rules over the call graph those
//! files provide — S102–S108 need every file, to resolve calls and to
//! know who names an export. `--explain CODE` prints the full rationale
//! for one rule. `--no-allowlist` reports the `[[allow]]`-suppressed
//! findings as violations; the root tables of lint.toml stay in force
//! (they say what the rules mean, not what they excuse).
//! `--fix-allowlist` deletes lint.toml entries that matched nothing
//! (byte-identical rewrite when none are stale).
//!
//! Exit codes: 0 clean, 1 unallowlisted violations, 2 usage or I/O error.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use sybil_lint::workspace::{self, SourceFile};
use sybil_lint::{allowlist, report, rules};

/// Output rendering mode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Human,
    Json,
}

struct Args {
    workspace: bool,
    format: Format,
    root: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    no_allowlist: bool,
    fix_allowlist: bool,
    list_rules: bool,
    explain: Option<String>,
    paths: Vec<PathBuf>,
}

const USAGE: &str = "usage: sybil-lint [--workspace] [--format human|json] [--root DIR] \
                     [--allowlist FILE] [--no-allowlist] [--fix-allowlist] [--list-rules] \
                     [--explain CODE] [PATH...]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        format: Format::Human,
        root: None,
        allowlist: None,
        no_allowlist: false,
        fix_allowlist: false,
        list_rules: false,
        explain: None,
        paths: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => args.workspace = true,
            "--fix-allowlist" => {
                args.workspace = true; // staleness needs the full scan
                args.fix_allowlist = true;
            }
            "--explain" => args.explain = Some(it.next().ok_or("--explain expects a rule code")?),
            "--format" => match it.next().as_deref() {
                Some("json") => args.format = Format::Json,
                Some("human") => args.format = Format::Human,
                other => return Err(format!("--format expects human|json, got {other:?}")),
            },
            "--root" => {
                args.root = Some(PathBuf::from(
                    it.next().ok_or("--root expects a directory")?,
                ))
            }
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(
                    it.next().ok_or("--allowlist expects a file")?,
                ))
            }
            "--no-allowlist" => args.no_allowlist = true,
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            p if !p.starts_with('-') => args.paths.push(PathBuf::from(p)),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if args.fix_allowlist && args.no_allowlist {
        return Err("--fix-allowlist and --no-allowlist are contradictory".to_string());
    }
    if !args.workspace && args.paths.is_empty() && !args.list_rules && args.explain.is_none() {
        return Err(format!("nothing to lint\n{USAGE}"));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.list_rules {
        for rule in &rules::RULES {
            println!("{}  {}", rule.code, rule.summary);
        }
        return ExitCode::SUCCESS;
    }
    if let Some(code) = &args.explain {
        let code = code.to_uppercase();
        match rules::rule(&code) {
            Some(rule) => {
                println!("{}", rule.explain);
                return ExitCode::SUCCESS;
            }
            None => {
                let known: Vec<&str> = rules::RULES.iter().map(|r| r.code).collect();
                eprintln!(
                    "sybil-lint: unknown rule {code:?} (known: {})",
                    known.join(" ")
                );
                return ExitCode::from(2);
            }
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let root = match args.root.clone().or_else(|| workspace::find_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("sybil-lint: no workspace root found (run inside the repo or pass --root)");
            return ExitCode::from(2);
        }
    };

    // Gather files: whole workspace and/or explicit paths.
    let mut files: Vec<SourceFile> = Vec::new();
    if args.workspace {
        match workspace::discover(&root) {
            Ok(fs) => files.extend(fs),
            Err(e) => {
                eprintln!("sybil-lint: workspace discovery failed: {e}");
                return ExitCode::from(2);
            }
        }
    }
    for p in &args.paths {
        let abs = if p.is_absolute() {
            p.clone()
        } else {
            cwd.join(p)
        };
        let rel = abs
            .strip_prefix(&root)
            .unwrap_or(&abs)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        files.push(SourceFile {
            kind: workspace::classify(&rel),
            crate_name: rel
                .strip_prefix("crates/")
                .and_then(|r| r.split('/').next())
                .unwrap_or("root")
                .to_string(),
            abs,
            rel,
        });
    }

    // Load lint.toml (default <root>/lint.toml; absence is fine).
    let allow_path = args
        .allowlist
        .clone()
        .unwrap_or_else(|| root.join("lint.toml"));
    let mut allow_content = String::new();
    let mut allow = match std::fs::read_to_string(&allow_path) {
        Ok(content) => match allowlist::parse(&content) {
            Ok(a) => {
                allow_content = content;
                a
            }
            Err(e) => {
                eprintln!("sybil-lint: {}: {e}", display(&allow_path));
                return ExitCode::from(2);
            }
        },
        Err(_) if args.allowlist.is_none() => allowlist::Allowlist::default(),
        Err(e) => {
            eprintln!("sybil-lint: cannot read {}: {e}", display(&allow_path));
            return ExitCode::from(2);
        }
    };
    if args.no_allowlist {
        // Drop the suppressions only: the root tables are configuration.
        allow.entries.clear();
    }

    let run = if args.workspace {
        workspace::run_workspace
    } else {
        workspace::run
    };
    let mut rep = match run(&files, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sybil-lint: {e}");
            return ExitCode::from(2);
        }
    };

    if args.fix_allowlist {
        // Prune stale entries, then report as if the pruned file had been
        // in effect all along (their S105 findings disappear with them).
        let stale = std::mem::take(&mut rep.unused_allowlist);
        let rewritten = allowlist::remove_stale(&allow_content, &stale);
        if rewritten != allow_content {
            if let Err(e) = std::fs::write(&allow_path, &rewritten) {
                eprintln!("sybil-lint: cannot rewrite {}: {e}", display(&allow_path));
                return ExitCode::from(2);
            }
        }
        // Only theirs: an unmatched root pattern is S105 too, and pruning
        // cannot fix it.
        let pruned = |f: &report::Finding| stale.iter().any(|e| e.defined_at == f.line);
        rep.violations.retain(|f| f.rule != "S105" || !pruned(f));
        eprintln!(
            "sybil-lint: --fix-allowlist removed {} stale entr{} from {}",
            stale.len(),
            if stale.len() == 1 { "y" } else { "ies" },
            display(&allow_path)
        );
    }

    match args.format {
        Format::Json => print!("{}", report::render_json(&rep)),
        Format::Human => print!("{}", report::render_human(&rep)),
    }
    if rep.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn display(p: &Path) -> String {
    p.to_string_lossy().into_owned()
}
