//! End-to-end chaos property tests: the distributed graph algorithms must
//! produce results **bit-identical** to their fault-free runs when the
//! transport drops, duplicates, delays, and reorders envelopes under any
//! fixed seed — and the machine statistics must show the faults actually
//! fired (a chaos test that injects nothing proves nothing).

use dgp::prelude::*;
use dgp_algorithms::seq;

/// The three baked-in seeds, plus one from `DGP_CHAOS_SEED` when set
/// (the CI chaos matrix uses it to widen coverage per leg).
fn seeds() -> Vec<u64> {
    let mut s = vec![0xC0FFEE, 42, 7];
    if let Ok(v) = std::env::var("DGP_CHAOS_SEED") {
        if let Ok(extra) = v.parse::<u64>() {
            s.push(extra);
        }
    }
    s
}

fn chaos_cfg(ranks: usize, seed: u64) -> MachineConfig {
    // A modest coalescing capacity makes many envelopes (more fault
    // opportunities) without making the test slow.
    MachineConfig::new(ranks)
        .coalescing(8)
        .faults(FaultPlan::chaos(seed))
}

/// A Δ schedule's SSSP under chaos is bit-identical to its fault-free
/// run, which matches Dijkstra.
fn assert_delta_bit_identical_under_chaos(strategy: SsspStrategy) {
    let mut el = generators::erdos_renyi(150, 900, 8);
    el.randomize_weights(0.5, 3.0, 9);
    let clean = run_sssp(&el, 3, 0, strategy);
    let expect = seq::dijkstra(&el, 0);
    // Sanity: the fault-free run is itself correct.
    for (i, (x, y)) in clean.iter().zip(&expect).enumerate() {
        let ok = (x - y).abs() < 1e-9 || (x.is_infinite() && y.is_infinite());
        assert!(ok, "{strategy:?} vertex {i}: {x} vs {y}");
    }
    for seed in seeds() {
        let (got, stats) = run_sssp_cfg_stats(&el, chaos_cfg(3, seed), 0, strategy);
        // Bit-identical, not approximately equal: the reliability layer
        // must make the faulted run indistinguishable from the clean one.
        assert_eq!(
            got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "{strategy:?} seed {seed}"
        );
        assert!(
            stats.faults_injected() > 0,
            "{strategy:?} seed {seed}: nothing injected"
        );
        assert!(
            stats.retransmits > 0,
            "{strategy:?} seed {seed}: drops never recovered"
        );
    }
}

#[test]
fn sssp_bit_identical_under_chaos() {
    assert_delta_bit_identical_under_chaos(SsspStrategy::Delta(1.0));
}

/// The asynchronous schedule ends its one epoch with `try_finish` while
/// work hooks keep depositing bucket work: a lost queue entry would hang
/// the run or strand a vertex at a stale distance.
#[test]
fn sssp_delta_async_bit_identical_under_chaos() {
    assert_delta_bit_identical_under_chaos(SsspStrategy::DeltaAsync(1.0));
}

#[test]
fn sssp_delta_split_bit_identical_under_chaos() {
    assert_delta_bit_identical_under_chaos(SsspStrategy::DeltaSplit(1.0));
}

#[test]
fn sssp_fixed_point_bit_identical_under_chaos() {
    let mut el = generators::rmat(7, 8, generators::RmatParams::GRAPH500, 21);
    el.randomize_weights(0.5, 3.0, 4);
    let clean = run_sssp(&el, 4, 0, SsspStrategy::FixedPoint);
    for seed in seeds() {
        let (got, stats) = run_sssp_cfg_stats(&el, chaos_cfg(4, seed), 0, SsspStrategy::FixedPoint);
        assert_eq!(
            got.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            clean.iter().map(|d| d.to_bits()).collect::<Vec<_>>(),
            "seed {seed}"
        );
        assert!(stats.faults_injected() > 0, "seed {seed}");
    }
}

#[test]
fn cc_bit_identical_under_chaos() {
    let el = generators::component_blobs(5, 40, 2, 17);
    let clean = run_cc(&el, 4);
    assert_eq!(clean, seq::cc_labels(&el), "fault-free sanity");
    for seed in seeds() {
        let (got, stats) = run_cc_cfg_stats(&el, chaos_cfg(4, seed));
        assert_eq!(got, clean, "seed {seed}");
        assert!(stats.faults_injected() > 0, "seed {seed}");
        assert!(stats.retransmits > 0, "seed {seed}");
    }
}

#[test]
fn pagerank_matches_fault_free_under_chaos() {
    let el = generators::rmat(6, 6, generators::RmatParams::GRAPH500, 31);
    let clean = run_pagerank(&el, 3, 0.85, 15);
    for seed in seeds() {
        let got = run_pagerank_cfg(&el, chaos_cfg(3, seed), 0.85, 15);
        // PageRank sums contributions in arrival order, and float addition
        // is not associative — arrival order is scheduling-dependent even
        // on the perfect transport, so bit-identity is not the contract
        // here (it is for SSSP/CC, whose `min` combiner is
        // order-independent). The faulted run must stay within the same
        // tight envelope as any two fault-free runs.
        for (i, (x, y)) in got.iter().zip(&clean).enumerate() {
            assert!((x - y).abs() < 1e-9, "seed {seed} vertex {i}: {x} vs {y}");
        }
    }
}

#[test]
fn chaos_under_wave_termination_mode() {
    let el = generators::component_blobs(4, 30, 2, 23);
    let clean = run_cc(&el, 3);
    for seed in seeds() {
        let cfg = chaos_cfg(3, seed).termination(TerminationMode::FourCounterWave);
        let (got, stats) = run_cc_cfg_stats(&el, cfg);
        assert_eq!(got, clean, "seed {seed}");
        assert!(stats.faults_injected() > 0, "seed {seed}");
    }
}
