//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [FLAGS] [EXPERIMENTS...]
//! ```
//!
//! Arguments are parsed into a typed [`RunSpec`] (`--help` prints the
//! full flag table and experiment list, rendered from the same spec the
//! parser consumes). With `--metrics DIR`, every observed stage — the
//! simulator and both serving engines — contributes to one deterministic
//! `DIR/metrics.json`: the `logical` section is byte-identical across
//! `RENREN_THREADS` and shard counts, while wall-clock quantities live in
//! the segregated `wall` section.

use sybil_obs::Snapshot;
use sybil_repro::{
    chaos, defenses, deployment, fig1, fig2, fig3, fig4, fig5, fig6, fig7, fig8, fig9,
};
use sybil_repro::{export, Ctx, RunSpec};
use sybil_repro::{help, mixing, parse_args, reach, restart, serve, table1, table2, table3, zoo};

fn main() {
    let spec: RunSpec = match parse_args(std::env::args().skip(1)) {
        Ok(spec) => spec,
        Err(sybil_repro::CliError::HelpRequested) => {
            println!("{}", help());
            return;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{}", help());
            std::process::exit(2);
        }
    };
    if let Some(t) = spec.threads {
        // Must happen before any parallel work spins up worker pools.
        std::env::set_var(osn_graph::par::THREADS_ENV, t.to_string());
    }

    // The binary is the one place a real clock is constructed (libraries
    // take an injected `Clock`; lint D002 enforces that split).
    let epoch = std::time::Instant::now();
    let clock = move || epoch.elapsed().as_secs_f64();
    let mut master: Option<Snapshot> = spec.metrics_dir.as_ref().map(|_| Snapshot::default());

    eprintln!("simulating scale={} seed={} ...", spec.scale, spec.seed);
    let t0 = std::time::Instant::now();
    // Scale xl has no simulator configuration (the dataset comes from
    // the synthetic scale generator), so it contributes no `sim` metrics
    // namespace and always goes through `Ctx::build`.
    let ctx = match (master.as_mut(), spec.scale.config(spec.seed)) {
        (Some(m), Some(sim_cfg)) => {
            let (out, sim_snap) = osn_sim::simulate_observed(sim_cfg);
            m.absorb(&sim_snap.prefixed("sim"));
            Ctx::from_output(out, spec.scale, spec.seed)
        }
        _ => Ctx::build(spec.scale, spec.seed),
    };
    let stats = ctx.out.stats();
    eprintln!(
        "simulated {} accounts / {} requests / {} edges in {} ms \
         (sybil edges {}, attack edges {}, banned {})",
        ctx.out.accounts.len(),
        stats.requests,
        stats.edges,
        t0.elapsed().as_millis(),
        stats.sybil_edges,
        stats.attack_edges,
        stats.banned
    );

    let dir = spec.run_dir();
    let save = |name: &str, json: &dyn erased::Json, text: &str| {
        println!("{text}");
        println!("{}", "=".repeat(78));
        if let Err(e) = json.write(&dir.join(format!("{name}.json"))) {
            eprintln!("warning: could not write {name}.json: {e}");
        }
        if let Err(e) = export::write_text(dir.join(format!("{name}.txt")), text) {
            eprintln!("warning: could not write {name}.txt: {e}");
        }
    };

    let per_class = spec.per_class();
    // A failed experiment is reported where it happens, the rest still
    // run, and the process exits non-zero at the end.
    let mut failed = false;
    for e in &spec.experiments {
        let t = std::time::Instant::now();
        match e.as_str() {
            "fig1" => {
                let r = fig1::run(&ctx, per_class);
                save("fig1", &r, &r.render());
            }
            "fig2" => {
                let r = fig2::run(&ctx, per_class);
                save("fig2", &r, &r.render());
            }
            "fig3" => {
                let r = fig3::run(&ctx, per_class);
                save("fig3", &r, &r.render());
            }
            "fig4" => {
                let r = fig4::run(&ctx, per_class);
                save("fig4", &r, &r.render());
            }
            "table1" => {
                let r = table1::run(&ctx, per_class, 5);
                save("table1", &r, &r.render());
            }
            "fig5" => {
                let r = fig5::run(&ctx);
                save("fig5", &r, &r.render());
            }
            "fig6" => {
                let r = fig6::run(&ctx);
                save("fig6", &r, &r.render());
            }
            "table2" => {
                let r = table2::run(&ctx);
                save("table2", &r, &r.render());
            }
            "fig7" => {
                let r = fig7::run(&ctx);
                save("fig7", &r, &r.render());
            }
            "fig8" => {
                let r = fig8::run(&ctx, 1000);
                save("fig8", &r, &r.render());
            }
            "fig9" => {
                let r = fig9::run(&ctx);
                save("fig9", &r, &r.render());
            }
            "table3" => {
                let r = table3::run(&ctx);
                save("table3", &r, &r.render());
            }
            "zoo" => {
                let r = zoo::run(&ctx, per_class, 5);
                save("zoo", &r, &r.render());
            }
            "mixing" => {
                let r = mixing::run(&ctx);
                save("mixing", &r, &r.render());
            }
            "deployment" => {
                let r = deployment::run(&ctx, &spec);
                save("deployment", &r, &r.render());
            }
            "serve" => {
                let result = if let Some(m) = master.as_mut() {
                    serve::run_observed(&ctx, &spec, &clock).map(|(r, snap)| {
                        m.absorb(&snap);
                        r
                    })
                } else {
                    serve::run(&ctx, &spec)
                };
                match result {
                    Ok(r) => save("serve", &r, &r.render()),
                    Err(e) => {
                        eprintln!("serve experiment failed: {e}");
                        failed = true;
                    }
                }
            }
            "chaos" => {
                let result = if master.is_some() {
                    let mut reg = sybil_obs::Registry::new();
                    let r = chaos::run_observed(&ctx, &spec, &mut reg);
                    if let (Some(m), Ok(_)) = (master.as_mut(), &r) {
                        m.absorb(&reg.snapshot());
                    }
                    r
                } else {
                    chaos::run(&ctx, &spec)
                };
                match result {
                    Ok(r) => save("chaos", &r, &r.render()),
                    Err(e) => {
                        eprintln!("chaos drill failed: {e}");
                        failed = true;
                    }
                }
            }
            "restart" => match restart::run(&ctx, &spec) {
                Ok(r) => save("restart", &r, &r.render()),
                Err(e) => {
                    eprintln!("restart drill failed: {e}");
                    failed = true;
                }
            },
            "reach" => {
                let r = reach::run(&ctx, spec.reach_trials());
                save("reach", &r, &r.render());
            }
            "defenses" => {
                let r = defenses::run(&ctx, &spec);
                save("defenses", &r, &r.render());
            }
            other => eprintln!("unknown experiment {other:?} (skipped)"),
        }
        eprintln!("[{e} done in {:.1}s]", t.elapsed().as_secs_f64());
    }
    if let (Some(metrics_dir), Some(m)) = (spec.metrics_dir.as_ref(), master.as_ref()) {
        let path = metrics_dir.join("metrics.json");
        match export::write_json(&path, m) {
            Ok(()) => eprintln!("metrics written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write metrics.json: {e}"),
        }
    }
    eprintln!("results written under {}", dir.display());
    if failed {
        std::process::exit(1);
    }
}

/// Tiny object-safe serialization shim so `save` can take any result.
mod erased {
    use std::path::Path;

    pub trait Json {
        fn write(&self, path: &Path) -> std::io::Result<()>;
    }

    impl<T: serde::Serialize> Json for T {
        fn write(&self, path: &Path) -> std::io::Result<()> {
            sybil_repro::export::write_json(path, self)
        }
    }
}
