//! Cache tuning: sweep the GPU-memory cache budget of the Triton join's
//! hybrid working set (the Section 5.3 interleaved array) and observe the
//! robustness the paper designs for — including the counterintuitive dip
//! at 100% caching, where an idle interconnect wastes bandwidth.
//!
//! ```text
//! cargo run --release --example cache_tuning -p triton-core
//! ```

use triton_core::TritonJoin;
use triton_datagen::WorkloadSpec;
use triton_hw::units::Bytes;
use triton_hw::HwConfig;

fn main() {
    let k = 512;
    let hw = HwConfig::ac922().scaled(k);
    let gib = 1u64 << 30;

    for m in [512u64, 2048] {
        let w = WorkloadSpec::paper_default(m, k).generate();
        println!(
            "\nworkload: {m} M tuples/relation ({} GiB modeled data)",
            m * 32 / 1024
        );
        println!(
            "{:>12} {:>12} {:>10} {:>14} {:>14} {:>14}",
            "cache (GiB)",
            "G tuples/s",
            "vs 0-cache",
            "reserve (GiB)",
            "staging (GiB)",
            "planning pays"
        );
        // Reported device bytes, in modeled GiB.
        let modeled_gib = |bytes: u64| (bytes * k) as f64 / gib as f64;
        let mut base = None;
        for cache_gib in [0.0f64, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 14.9] {
            let join = TritonJoin {
                cache_bytes: Some(Bytes(((cache_gib * gib as f64) as u64) / k)),
                ..TritonJoin::default()
            };
            let report = join.run(&w, &hw);
            let placement = report
                .placement
                .as_ref()
                .expect("the Triton join reports placement");
            let tput = report.throughput_gtps();
            let b = *base.get_or_insert(tput);
            println!(
                "{:>12.1} {:>12.3} {:>9.2}x {:>14.2} {:>14.2} {:>14}",
                cache_gib,
                tput,
                tput / b,
                modeled_gib(placement.reserve),
                modeled_gib(placement.staging_capacity),
                placement.planning_pays
            );
        }
    }

    println!(
        "\nNo cliffs in either direction: the interleaved GPU/CPU page\n\
         mapping spreads the cached share evenly through the working set,\n\
         so every extra GiB of cache helps a little and a mis-sized cache\n\
         never falls off a cliff (Section 6.2.7). The reserve (two\n\
         partition pairs plus the runtime's eighth) never moves; staging is\n\
         whatever the cache leaves free, and a skew-aware join plans its\n\
         placement only when the largest pair would not fit there."
    );
}
