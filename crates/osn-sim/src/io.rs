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
//! * `edges.csv`   — `src,dst,time_secs` (via `osn_graph::io`)
//! * `accounts.csv`— `id,kind,attacker,tool,created_secs,banned_secs,gender,attractiveness`
//! * `requests.csv`— `from,to,sent_secs,outcome,decided_secs`

use crate::account::{Account, AccountKind};
use crate::log::RequestLog;
use crate::output::{EngineStats, SimOutput};
use crate::profile::{Gender, Profile};
use crate::request::{RequestOutcome, RequestRecord};
use crate::tools::ToolKind;
use crate::SimConfig;
use osn_graph::{NodeId, Timestamp};
use std::fs;
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::path::Path;

/// Write the full dataset into `dir` (created if missing).
pub fn export_dataset<P: AsRef<Path>>(out: &SimOutput, dir: P) -> io::Result<()> {
    let dir = dir.as_ref();
    fs::create_dir_all(dir)?;
    // Graph.
    let f = fs::File::create(dir.join("edges.csv"))?;
    osn_graph::io::write_edge_list(&out.graph, BufWriter::new(f))?;
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
            a.banned_at.map(|b| b.as_secs().to_string()).unwrap_or_default(),
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
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("line {line}: {what}"),
    )
}

/// Load a dataset written by [`export_dataset`]. The returned
/// [`SimOutput`] carries the given `config` for provenance (the CSVs don't
/// embed it) and empty engine stats.
pub fn import_dataset<P: AsRef<Path>>(dir: P, config: SimConfig) -> io::Result<SimOutput> {
    let dir = dir.as_ref();
    let graph = {
        let f = fs::File::open(dir.join("edges.csv"))?;
        osn_graph::io::read_edge_list(BufReader::new(f))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?
    };
    // Accounts.
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
                attacker: cols[2].parse().map_err(|_| bad(lineno + 1, "bad attacker"))?,
                tool: tool_from_code(cols[3]).ok_or_else(|| bad(lineno + 1, "bad tool"))?,
            },
            _ => return Err(bad(lineno + 1, "bad kind")),
        };
        let created =
            Timestamp(cols[4].parse().map_err(|_| bad(lineno + 1, "bad created"))?);
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
        let attractiveness: f64 =
            cols[7].parse().map_err(|_| bad(lineno + 1, "bad attractiveness"))?;
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
        let from = NodeId(cols[0].parse().map_err(|_| bad(lineno + 1, "bad from"))?);
        let to = NodeId(cols[1].parse().map_err(|_| bad(lineno + 1, "bad to"))?);
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
                    cols[4].parse().map_err(|_| bad(lineno + 1, "bad decided"))?,
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

    #[test]
    fn import_rejects_garbage() {
        let dir = std::env::temp_dir().join("osn_sim_io_garbage");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("edges.csv"), "src,dst,time_secs\n0,1,5\n").unwrap();
        fs::write(
            dir.join("accounts.csv"),
            "header\n0,normal,,,0,,f,0.5\n1,alien,,,0,,f,0.5\n",
        )
        .unwrap();
        fs::write(dir.join("requests.csv"), "header\n").unwrap();
        let err = import_dataset(&dir, SimConfig::tiny(0)).unwrap_err();
        assert!(err.to_string().contains("bad kind"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Rows that break the log's well-formedness contract are rejected
    /// with their line number instead of reaching the stream merge.
    #[test]
    fn import_rejects_ill_formed_requests() {
        let dir = std::env::temp_dir().join("osn_sim_io_ill_formed");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("edges.csv"), "src,dst,time_secs\n0,1,5\n").unwrap();
        fs::write(
            dir.join("accounts.csv"),
            "header\n0,normal,,,0,,f,0.5\n1,normal,,,0,,m,0.5\n",
        )
        .unwrap();
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
            fs::write(dir.join("requests.csv"), format!("header\n{rows}")).unwrap();
            let err = import_dataset(&dir, SimConfig::tiny(0)).unwrap_err();
            assert!(err.to_string().contains(want), "{err}");
        }
        // Equal timestamps are well-formed: answered the second it was sent.
        let tied = "header\n0,1,10,rejected,10\n1,0,10,pending,\n";
        fs::write(dir.join("requests.csv"), tied).unwrap();
        let back = import_dataset(&dir, SimConfig::tiny(0)).unwrap();
        assert_eq!(back.log.len(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
