//! Social-honeypot viability study (related work, §4): Webb et al. caught
//! MySpace spammers with honeypot accounts that wait to be friended. The
//! paper's counterpoint: Renren Sybils *target popular users*, so a
//! honeypot only attracts Sybils if it looks popular.
//!
//! We measure exactly that on simulated data: group normal accounts by
//! popularity (degree decile) and count how many Sybil friend requests
//! each group received per account.
//!
//! ```sh
//! cargo run --release --example honeypot
//! ```

use renren_sybils::sim::{simulate, SimConfig};

fn main() {
    println!("simulating ...");
    let out = simulate(SimConfig::small(2024));

    // Sybil requests received per normal account.
    let n = out.accounts.len();
    let mut sybil_reqs = vec![0u32; n];
    for r in out.log.records() {
        if out.is_sybil(r.from) && !out.is_sybil(r.to) {
            sybil_reqs[r.to.index()] += 1;
        }
    }

    // Decile by degree among normal users.
    let mut normals = out.normal_ids();
    normals.sort_by_key(|&u| out.graph.degree(u));
    let decile = normals.len() / 10;
    println!("\nSybil friend requests received, by popularity decile:");
    println!(
        "{:>8} {:>12} {:>16} {:>22}",
        "decile", "mean degree", "accounts", "sybil reqs / account"
    );
    for d in 0..10 {
        let slice = &normals[d * decile..((d + 1) * decile).min(normals.len())];
        let mean_deg =
            slice.iter().map(|&u| out.graph.degree(u)).sum::<usize>() as f64 / slice.len() as f64;
        let reqs: u32 = slice.iter().map(|&u| sybil_reqs[u.index()]).sum();
        println!(
            "{:>8} {:>12.1} {:>16} {:>22.3}",
            d + 1,
            mean_deg,
            slice.len(),
            reqs as f64 / slice.len() as f64
        );
    }

    let bottom: u32 = normals[..decile]
        .iter()
        .map(|&u| sybil_reqs[u.index()])
        .sum();
    let top: u32 = normals[normals.len() - decile..]
        .iter()
        .map(|&u| sybil_reqs[u.index()])
        .sum();
    println!(
        "\ntop decile attracts {:.0}x the Sybil requests of the bottom decile.",
        top as f64 / bottom.max(1) as f64
    );
    println!(
        "=> a passive, unpopular honeypot (bottom decile) would wait a long time; \
         honeypots must be engineered to appear popular (paper §4)."
    );
}
