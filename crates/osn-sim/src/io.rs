//! Dataset export/import.
//!
//! A simulation run is a full measurement dataset: a timestamped
//! friendship graph, a ground-truth label table, and an operational
//! friend-request log. This module serializes all three as CSV so runs
//! can be archived, inspected with external tooling, or replayed through
//! the pipeline without re-simulating — the workflow the paper's authors
//! had with Renren's dumps.
//!
//! Files (per dataset directory):
//! * `edges.csv`   — `src,dst,time_secs`
//! * `accounts.csv`— `id,kind,attacker,tool,created_secs,banned_secs,gender,attractiveness`
//! * `requests.csv`— `from,to,sent_secs,outcome,decided_secs`
//!
//! `accounts.csv` declares the population: an edge or request naming an id
//! it does not list is rejected, so an imported dataset never indexes past
//! its account table.

use crate::account::{Account, AccountKind};
use crate::log::RequestLog;
use crate::output::{EngineStats, SimOutput};
use crate::profile::{Gender, Profile};
use crate::request::{RequestOutcome, RequestRecord};
use crate::tools::ToolKind;
use crate::SimConfig;
use osn_graph::{NodeId, TemporalGraph, Timestamp};
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write the full dataset into `dir` (created if missing).
pub fn export_dataset<P: AsRef<Path>>(out: &SimOutput, dir: P) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    // Graph.
    let mut w = BufWriter::new(fs::File::create(dir.join("edges.csv"))?);
    writeln!(w, "src,dst,time_secs")?;
    for e in out.graph.edges() {
        writeln!(w, "{},{},{}", e.a.0, e.b.0, e.time.as_secs())?;
    }
    w.flush()?;
    // Accounts.
    let mut w = BufWriter::new(fs::File::create(dir.join("accounts.csv"))?);
    writeln!(
        w,
        "id,kind,attacker,tool,created_secs,banned_secs,gender,attractiveness"
    )?;
    for (i, a) in out.accounts.iter().enumerate() {
        let (kind, attacker, tool) = match a.kind {
            AccountKind::Normal => ("normal", String::new(), String::new()),
            AccountKind::Sybil { attacker, tool } => {
                ("sybil", attacker.to_string(), tool_code(tool).to_string())
            }
        };
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            i,
            kind,
            attacker,
            tool,
            a.created_at.as_secs(),
            a.banned_at
                .map(|b| b.as_secs().to_string())
                .unwrap_or_default(),
            match a.profile.gender {
                Gender::Female => "f",
                Gender::Male => "m",
            },
            a.profile.attractiveness,
        )?;
    }
    w.flush()?;
    // Requests.
    let mut w = BufWriter::new(fs::File::create(dir.join("requests.csv"))?);
    writeln!(w, "from,to,sent_secs,outcome,decided_secs")?;
    for r in out.log.records() {
        let (outcome, decided) = match r.outcome {
            RequestOutcome::Accepted(t) => ("accepted", t.as_secs().to_string()),
            RequestOutcome::Rejected(t) => ("rejected", t.as_secs().to_string()),
            RequestOutcome::Pending => ("pending", String::new()),
        };
        writeln!(
            w,
            "{},{},{},{},{}",
            r.from.0,
            r.to.0,
            r.sent_at.as_secs(),
            outcome,
            decided
        )?;
    }
    w.flush()
}

fn tool_code(t: ToolKind) -> &'static str {
    match t {
        ToolKind::MarketingAssistant => "marketing",
        ToolKind::SuperNodeCollector => "supernode",
        ToolKind::AlmightyAssistant => "almighty",
    }
}

fn tool_from_code(s: &str) -> Option<ToolKind> {
    match s {
        "marketing" => Some(ToolKind::MarketingAssistant),
        "supernode" => Some(ToolKind::SuperNodeCollector),
        "almighty" => Some(ToolKind::AlmightyAssistant),
        _ => None,
    }
}

fn bad(line: usize, what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("line {line}: {what}"))
}

/// Parse column `name` as an account id: one of the `accounts` ids that
/// `accounts.csv` declared.
fn account_id(col: &str, accounts: usize, line: usize, name: &str) -> io::Result<NodeId> {
    match col.trim().parse::<u32>() {
        Ok(id) if (id as usize) < accounts => Ok(NodeId(id)),
        Ok(_) => Err(bad(line, &format!("{name} is not an id in accounts.csv"))),
        Err(_) => Err(bad(line, &format!("bad {name}"))),
    }
}

/// Load a dataset written by [`export_dataset`]. The returned
/// [`SimOutput`] carries the given `config` for provenance (the CSVs don't
/// embed it) and empty engine stats.
pub fn import_dataset<P: AsRef<Path>>(dir: P, config: SimConfig) -> io::Result<SimOutput> {
    let dir = dir.as_ref();
    // Accounts first: they size the graph and bound every id below.
    let mut accounts: Vec<Account> = Vec::new();
    let f = fs::File::open(dir.join("accounts.csv"))?;
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 8 {
            return Err(bad(lineno + 1, "expected 8 columns"));
        }
        let id: usize = cols[0].parse().map_err(|_| bad(lineno + 1, "bad id"))?;
        if id != accounts.len() {
            return Err(bad(lineno + 1, "ids must be dense and ordered"));
        }
        let kind = match cols[1] {
            "normal" => AccountKind::Normal,
            "sybil" => AccountKind::Sybil {
                attacker: cols[2]
                    .parse()
                    .map_err(|_| bad(lineno + 1, "bad attacker"))?,
                tool: tool_from_code(cols[3]).ok_or_else(|| bad(lineno + 1, "bad tool"))?,
            },
            _ => return Err(bad(lineno + 1, "bad kind")),
        };
        let created = Timestamp(
            cols[4]
                .parse()
                .map_err(|_| bad(lineno + 1, "bad created"))?,
        );
        let banned = if cols[5].is_empty() {
            None
        } else {
            Some(Timestamp(
                cols[5].parse().map_err(|_| bad(lineno + 1, "bad banned"))?,
            ))
        };
        let gender = match cols[6] {
            "f" => Gender::Female,
            "m" => Gender::Male,
            _ => return Err(bad(lineno + 1, "bad gender")),
        };
        let attractiveness: f64 = cols[7]
            .parse()
            .map_err(|_| bad(lineno + 1, "bad attractiveness"))?;
        accounts.push(Account {
            kind,
            profile: Profile::new(gender, attractiveness),
            created_at: created,
            banned_at: banned,
            // Behavioral latents aren't serialized (they're inputs, not
            // observables); reloaded datasets carry neutral values.
            accept_tendency: if kind.is_sybil() { 1.0 } else { 0.5 },
            sociability: 1.0,
        });
    }
    let n = accounts.len();
    // Graph. The header is optional; fields may carry surrounding blanks.
    let mut graph = TemporalGraph::with_nodes(n);
    let f = fs::File::open(dir.join("edges.csv"))?;
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line?;
        let row = line.trim();
        if row.is_empty() || (lineno == 0 && row.starts_with("src")) {
            continue;
        }
        let cols: Vec<&str> = row.split(',').collect();
        if cols.len() != 3 {
            return Err(bad(lineno + 1, "expected 3 columns"));
        }
        let a = account_id(cols[0], n, lineno + 1, "src")?;
        let b = account_id(cols[1], n, lineno + 1, "dst")?;
        let t = cols[2]
            .trim()
            .parse()
            .map_err(|_| bad(lineno + 1, "bad time"))?;
        graph
            .add_edge(a, b, Timestamp(t))
            .map_err(|e| bad(lineno + 1, &e.to_string()))?;
    }
    // Requests.
    let mut log = RequestLog::new();
    let f = fs::File::open(dir.join("requests.csv"))?;
    for (lineno, line) in BufReader::new(f).lines().enumerate() {
        let line = line?;
        if lineno == 0 || line.trim().is_empty() {
            continue;
        }
        let cols: Vec<&str> = line.split(',').collect();
        if cols.len() != 5 {
            return Err(bad(lineno + 1, "expected 5 columns"));
        }
        let from = account_id(cols[0], n, lineno + 1, "from")?;
        let to = account_id(cols[1], n, lineno + 1, "to")?;
        let sent = Timestamp(cols[2].parse().map_err(|_| bad(lineno + 1, "bad sent"))?);
        // The log's contract (send order, no decision before its send) is
        // only debug-asserted downstream; a file that breaks it would make
        // the serving stream silently disagree with the time-sorted replay.
        if log.records().last().is_some_and(|p| sent < p.sent_at) {
            return Err(bad(lineno + 1, "sent_secs goes backwards"));
        }
        let idx = log.push(RequestRecord {
            from,
            to,
            sent_at: sent,
            outcome: RequestOutcome::Pending,
        });
        match cols[3] {
            "pending" => {}
            "accepted" | "rejected" => {
                let t = Timestamp(
                    cols[4]
                        .parse()
                        .map_err(|_| bad(lineno + 1, "bad decided"))?,
                );
                if t < sent {
                    return Err(bad(lineno + 1, "decided_secs before sent_secs"));
                }
                let outcome = if cols[3] == "accepted" {
                    RequestOutcome::Accepted(t)
                } else {
                    RequestOutcome::Rejected(t)
                };
                log.resolve(idx, outcome);
            }
            _ => return Err(bad(lineno + 1, "bad outcome")),
        }
    }
    Ok(SimOutput {
        config,
        graph,
        accounts,
        log,
        engine_stats: EngineStats::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;

    #[test]
    fn roundtrip_preserves_dataset() {
        let out = simulate(SimConfig::tiny(33));
        let dir = std::env::temp_dir().join("osn_sim_io_roundtrip");
        let _ = fs::remove_dir_all(&dir);
        export_dataset(&out, &dir).unwrap();
        let back = import_dataset(&dir, SimConfig::tiny(33)).unwrap();
        assert_eq!(back.accounts.len(), out.accounts.len());
        assert_eq!(back.graph.num_edges(), out.graph.num_edges());
        assert_eq!(back.log.len(), out.log.len());
        // Labels, bans, and tools survive.
        for (a, b) in out.accounts.iter().zip(&back.accounts) {
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.banned_at, b.banned_at);
            assert_eq!(a.created_at, b.created_at);
            assert_eq!(a.profile.gender, b.profile.gender);
        }
        // Request outcomes survive.
        for (x, y) in out.log.records().iter().zip(back.log.records()) {
            assert_eq!(x, y);
        }
        // Derived statistics are identical.
        assert_eq!(out.stats().sybil_edges, back.stats().sybil_edges);
        assert_eq!(
            out.sybil_connectivity_fraction(),
            back.sybil_connectivity_fraction()
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Two accounts, and four: the populations the cases below import into.
    const TWO: &str = "header\n0,normal,,,0,,f,0.5\n1,normal,,,0,,m,0.5\n";
    const FOUR: &str = "header\n0,normal,,,0,,f,0.5\n1,normal,,,0,,m,0.5\n\
                        2,normal,,,0,,f,0.5\n3,normal,,,0,,m,0.5\n";

    #[test]
    fn import_rejects_garbage() {
        let accounts = "header\n0,normal,,,0,,f,0.5\n1,alien,,,0,,f,0.5\n";
        let err = err_text(import_files("garbage", "0,1,5\n", accounts, "header\n"));
        assert!(err.contains("bad kind"), "{err}");
    }

    /// Rows that break the log's well-formedness contract are rejected
    /// with their line number instead of reaching the stream merge.
    #[test]
    fn import_rejects_ill_formed_requests() {
        for (rows, want) in [
            (
                "0,1,10,accepted,9\n",
                "line 2: decided_secs before sent_secs",
            ),
            (
                "0,1,10,pending,\n1,0,9,pending,\n",
                "line 3: sent_secs goes backwards",
            ),
        ] {
            let requests = format!("header\n{rows}");
            let err = err_text(import_files("ill_formed", "0,1,5\n", TWO, &requests));
            assert!(err.contains(want), "{err}");
        }
        // Equal timestamps are well-formed: answered the second it was sent.
        let tied = "header\n0,1,10,rejected,10\n1,0,10,pending,\n";
        let back = import_files("tied", "0,1,5\n", TWO, tied).unwrap();
        assert_eq!(back.log.len(), 2);
    }

    /// Import a dataset of the three given files from a directory named
    /// after the calling test, then remove it.
    fn import_files(
        name: &str,
        edges: &str,
        accounts: &str,
        requests: &str,
    ) -> io::Result<SimOutput> {
        let dir = std::env::temp_dir().join(format!("osn_sim_io_{name}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("edges.csv"), edges).unwrap();
        fs::write(dir.join("accounts.csv"), accounts).unwrap();
        fs::write(dir.join("requests.csv"), requests).unwrap();
        let got = import_dataset(&dir, SimConfig::tiny(0));
        let _ = fs::remove_dir_all(&dir);
        got
    }

    /// Import `edges` beside [`FOUR`] accounts and no requests.
    fn import_edges(name: &str, edges: &str) -> io::Result<SimOutput> {
        import_files(name, edges, FOUR, "header\n")
    }

    fn err_text(got: io::Result<SimOutput>) -> String {
        match got {
            Ok(_) => panic!("import accepted an invalid dataset"),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                e.to_string()
            }
        }
    }

    /// The edge list comes back edge for edge, in creation order, with
    /// its times.
    #[test]
    fn roundtrip() {
        let out = simulate(SimConfig::tiny(5));
        let dir = std::env::temp_dir().join(format!("osn_sim_io_edges_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        export_dataset(&out, &dir).unwrap();
        let back = import_dataset(&dir, SimConfig::tiny(5)).unwrap();
        let _ = fs::remove_dir_all(&dir);
        assert!(out.graph.num_edges() > 0);
        assert_eq!(back.graph.edges(), out.graph.edges());
        assert_eq!(back.graph.num_nodes(), out.accounts.len());
    }

    #[test]
    fn header_is_optional() {
        let g = import_edges("no_header", "0,1,5\n1,2,6\n").unwrap().graph;
        assert_eq!(g.num_edges(), 2);
        // The graph is sized by accounts.csv, not by the largest id seen.
        assert_eq!(g.num_nodes(), 4);
    }

    #[test]
    fn empty_input() {
        for edges in ["", "src,dst,time_secs\n", "\n  \n"] {
            let g = import_edges("empty", edges).unwrap().graph;
            assert_eq!((g.num_nodes(), g.num_edges()), (4, 0), "{edges:?}");
        }
    }

    #[test]
    fn malformed_line_errors() {
        let err = err_text(import_edges("short", "0,1\n"));
        assert!(err.contains("line 1: expected 3 columns"), "{err}");
        let err = err_text(import_edges("letters", "src,dst,time_secs\na,b,c\n"));
        assert!(err.contains("line 2: bad src"), "{err}");
        let err = err_text(import_edges("bad_time", "0,1,soon\n"));
        assert!(err.contains("line 1: bad time"), "{err}");
    }

    #[test]
    fn self_loop_errors() {
        let err = err_text(import_edges("self_loop", "3,3,0\n"));
        assert!(err.contains("line 1: self loop on node 3"), "{err}");
    }

    #[test]
    fn duplicate_errors() {
        let err = err_text(import_edges("duplicate", "0,1,0\n1,0,5\n"));
        assert!(err.contains("line 2: duplicate edge"), "{err}");
    }

    #[test]
    fn whitespace_tolerated() {
        let g = import_edges("blanks", " 0 , 1 , 7 \n").unwrap().graph;
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.edges()[0].time, Timestamp(7));
    }

    /// A request naming an account `accounts.csv` never declared used to
    /// import, and feature extraction then indexed past the account table.
    #[test]
    fn request_endpoint_outside_the_accounts_is_rejected() {
        let err = err_text(import_files(
            "req_to",
            "",
            TWO,
            "header\n0,7,10,accepted,11\n",
        ));
        assert!(
            err.contains("line 2: to is not an id in accounts.csv"),
            "{err}"
        );
        let err = err_text(import_files(
            "req_from",
            "",
            TWO,
            "header\n2,0,10,pending,\n",
        ));
        assert!(
            err.contains("line 2: from is not an id in accounts.csv"),
            "{err}"
        );
    }

    /// An edge naming an undeclared account used to grow the graph past
    /// the account table, silently.
    #[test]
    fn edge_endpoint_outside_the_accounts_is_rejected() {
        let err = err_text(import_edges("edge_dst", "0,9,5\n"));
        assert!(
            err.contains("line 1: dst is not an id in accounts.csv"),
            "{err}"
        );
        let err = err_text(import_edges("edge_src", "4,0,5\n"));
        assert!(
            err.contains("line 1: src is not an id in accounts.csv"),
            "{err}"
        );
    }

    /// A single far-out id used to size the adjacency by itself (a 40-byte
    /// file asked for hundreds of millions of nodes); it is refused before
    /// anything is allocated for it.
    #[test]
    fn huge_edge_endpoint_is_rejected_before_sizing_the_graph() {
        let err = err_text(import_edges(
            "edge_huge",
            "src,dst,time_secs\n0,400000000,5\n",
        ));
        assert!(
            err.contains("line 2: dst is not an id in accounts.csv"),
            "{err}"
        );
        let err = err_text(import_edges("edge_max", "0,4294967295,5\n"));
        assert!(
            err.contains("line 1: dst is not an id in accounts.csv"),
            "{err}"
        );
    }
}
