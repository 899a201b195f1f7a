//! In-system exercise of the 16-bit logical-time machinery (§4.3): with a
//! fast directory logical clock (1 cycle per tick), timestamps wrap
//! several times within a run; long-held blocks cross their scrub
//! deadlines and must be reported open and later closed — all without a
//! single false positive.

use dvmc_coherence::{Cluster, ClusterConfig, ProcReq, Protocol};
use dvmc_types::{NodeId, WordAddr};

#[test]
fn timestamps_wrap_and_scrubbing_keeps_the_checker_sound() {
    let mut cfg = ClusterConfig::paper_default(2, Protocol::Directory);
    // One logical tick per cycle: Ts16 wraps every 65,536 cycles and the
    // scrub deadline (half window) is 32,768 cycles.
    cfg.node.lt_shift = 0;
    cfg.home.lt_shift = 0;
    let mut c = Cluster::new(cfg);

    // Node 0 takes a block Read-Write and holds it hot for several scrub
    // windows while node 1 churns unrelated blocks to keep time flowing.
    let held = WordAddr(0);
    let mut id = 0u64;
    c.submit(
        NodeId(0),
        ProcReq::Write {
            id,
            addr: held,
            value: 1,
        },
    );
    let total_cycles = 150_000u64;
    for cyc in 0..total_cycles {
        // Keep the held block's epoch alive with periodic local writes.
        if cyc % 5_000 == 0 {
            id += 1;
            c.submit(
                NodeId(0),
                ProcReq::Write {
                    id,
                    addr: held,
                    value: cyc,
                },
            );
        }
        // Unrelated traffic from node 1 (several blocks, some reuse).
        if cyc % 200 == 0 {
            id += 1;
            c.submit(
                NodeId(1),
                ProcReq::Write {
                    id,
                    addr: WordAddr(64 + (cyc / 200) % 256 * 8),
                    value: cyc,
                },
            );
        }
        c.tick();
        while c.pop_resp(NodeId(0)).is_some() {}
        while c.pop_resp(NodeId(1)).is_some() {}
    }
    assert!(c.run_to_quiescence(200_000), "must drain");

    // The held epoch out-lived at least two scrub deadlines.
    let opens: u64 = (0..2).map(|n| c.cache_stats(NodeId(n)).scrub_opens).sum();
    assert!(
        opens >= 2,
        "long epochs must be registered open across wraparounds, got {opens}"
    );

    // Hand the block over so the open epoch closes through the full
    // Inform-Closed path, then audit.
    id += 1;
    c.submit(NodeId(1), ProcReq::Read { id, addr: held });
    for _ in 0..50_000 {
        c.tick();
        if c.pop_resp(NodeId(1)).is_some() {
            break;
        }
    }
    assert!(c.run_to_quiescence(200_000));
    let violations = c.finish();
    assert!(
        violations.is_empty(),
        "wraparound must not cause false positives: {violations:?}"
    );
}

#[test]
fn snooping_order_count_wraps_without_false_positives() {
    // Snooping logical time advances one tick per coherence request; a
    // ping-pong between two nodes generates enough requests to cross the
    // 16-bit wrap within a bounded run.
    let mut c = Cluster::new(ClusterConfig::paper_default(2, Protocol::Snooping));
    let mut id = 0u64;
    let mut outstanding: Vec<(NodeId, u64)> = Vec::new();
    // Each iteration ping-pongs a handful of blocks between the nodes:
    // every write is a GetM (2 per block per round-trip).
    let rounds = 70_000u64;
    for r in 0..rounds {
        for (n, node) in [NodeId(0), NodeId(1)].into_iter().enumerate() {
            id += 1;
            c.submit(
                node,
                ProcReq::Write {
                    id,
                    addr: WordAddr((r % 4) * 8),
                    value: r * 2 + n as u64,
                },
            );
            outstanding.push((node, id));
        }
        // Drain responses lazily.
        for _ in 0..400 {
            c.tick();
            outstanding.retain(|(node, _)| c.pop_resp(*node).is_none());
            if outstanding.is_empty() {
                break;
            }
        }
        assert!(outstanding.is_empty(), "round {r} stuck");
    }
    assert!(c.run_to_quiescence(200_000));
    let requests: u64 = (0..2).map(|n| c.home_stats(NodeId(n)).requests).sum();
    assert!(
        requests > 66_000,
        "need enough coherence requests to wrap the 16-bit order count, got {requests}"
    );
    let violations = c.finish();
    assert!(violations.is_empty(), "{violations:?}");
}
