//! Calibrate the host machine and emit the report as JSON.
//!
//! Runs the native calibration probes (cache-capacity/line/latency
//! sweeps and TLB detection) against the real machine, prints a
//! human-readable summary, and then the whole
//! [`gcm::calibrate::CalibrationReport`] through its JSON serializer
//! (`gcm-calibration/v2`, built on
//! [`gcm::obs::json`]) — the form worth committing next to a bench
//! artifact so later runs on the same host can be diffed.
//!
//!     cargo run --release --example host_report

fn main() {
    // Keep the sweep modest (16 MiB ceiling) so the example is quick;
    // a real calibration run would raise this past the outermost cache.
    let r = gcm::calibrate::calibrate_host(16 * 1024 * 1024);

    println!("detected {} data-cache level(s):", r.caches.len());
    for (i, c) in r.caches.iter().enumerate() {
        println!(
            "  L{}: {:>8} KiB, {:>3} B lines, seq {:>6.1} ns, rand {:>6.1} ns",
            i + 1,
            c.capacity / 1024,
            c.line,
            c.seq_miss_ns,
            c.rand_miss_ns,
        );
    }
    match &r.tlb {
        Some(t) => println!(
            "  TLB: {} entries of {} KiB pages, miss {:.1} ns",
            t.entries,
            t.page / 1024,
            t.miss_ns
        ),
        None => println!("  TLB: not detected"),
    }

    println!("\n{}", r.to_json());
}
