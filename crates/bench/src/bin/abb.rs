//! ABB/ASV study (Humenay et al., §2): per-core body bias compresses
//! the die's frequency spread at the cost of leakage — the
//! circuit-level alternative to variation-aware scheduling.

use vasched::abb::{equalize_frequencies, BodyBiasConfig};
use vasched::experiments::Context;
use vasp_bench::harness::Harness;
use vastats::SimRng;

fn main() {
    let h = Harness::from_args();
    let ctx = Context::new(h.scale.grid);
    let mut rng = SimRng::seed_from(h.seed);

    println!(
        "{:>5} {:>14} {:>14} {:>16} {:>16}",
        "die", "spread before", "spread after", "static before W", "static after W"
    );
    let dies = h.scale.dies.min(10);
    let mut spread_cut = 0.0;
    let mut leak_cost = 0.0;
    for die_idx in 0..dies {
        let die = ctx.make_die(&mut rng);
        let machine = ctx.make_machine(&die);
        let out = equalize_frequencies(&machine, &BodyBiasConfig::typical());
        println!(
            "{die_idx:>5} {:>14.3} {:>14.3} {:>16.2} {:>16.2}",
            out.spread_before(),
            out.spread_after(),
            out.static_before_w,
            out.static_after_w
        );
        spread_cut += (out.spread_before() - out.spread_after()) / (out.spread_before() - 1.0);
        leak_cost += out.static_after_w / out.static_before_w - 1.0;
    }
    println!(
        "\naverage spread reduction: {:.0}% of the variation-induced gap",
        spread_cut / dies as f64 * 100.0
    );
    println!(
        "average static power cost: {:+.1}%",
        leak_cost / dies as f64 * 100.0
    );
    println!("(Humenay et al.: ABB/ASV shrinks frequency variation at the cost");
    println!(" of power variation — complementary to this paper's scheduling)");
}
