//! End-to-end tests of the coherent memory system under both protocols:
//! data propagation between nodes, sharer invalidation, writebacks, the
//! embedded coherence checker staying silent on correct executions, and
//! firing on injected faults.

use dvmc_coherence::{Cluster, ClusterConfig, ProcReq, ProcResp, Protocol};
use dvmc_core::violation::{CoherenceViolation, Violation};
use dvmc_types::{NodeId, WordAddr};

fn cluster(protocol: Protocol) -> Cluster {
    Cluster::new(ClusterConfig::paper_default(4, protocol))
}

/// Runs a single request to completion and returns the response.
fn run_op(c: &mut Cluster, node: u8, req: ProcReq) -> ProcResp {
    c.submit(NodeId(node), req);
    for _ in 0..10_000 {
        c.tick();
        if let Some(resp) = c.pop_resp(NodeId(node)) {
            return resp;
        }
    }
    panic!("request did not complete within 10k cycles: {req:?}");
}

fn read(c: &mut Cluster, node: u8, addr: u64) -> u64 {
    run_op(
        c,
        node,
        ProcReq::Read {
            id: 0,
            addr: WordAddr(addr),
        },
    )
    .value
}

fn write(c: &mut Cluster, node: u8, addr: u64, value: u64) {
    run_op(
        c,
        node,
        ProcReq::Write {
            id: 0,
            addr: WordAddr(addr),
            value,
        },
    );
}

fn both_protocols(f: impl Fn(Protocol)) {
    f(Protocol::Directory);
    f(Protocol::Snooping);
}

#[test]
fn read_returns_initialized_memory() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(100), 77);
        assert_eq!(read(&mut c, 0, 100), 77, "{p:?}");
        assert_eq!(read(&mut c, 0, 101), 0, "{p:?}: untouched word");
    });
}

#[test]
fn write_then_read_same_node() {
    both_protocols(|p| {
        let mut c = cluster(p);
        write(&mut c, 1, 200, 42);
        assert_eq!(read(&mut c, 1, 200), 42, "{p:?}");
    });
}

#[test]
fn store_propagates_to_other_nodes() {
    both_protocols(|p| {
        let mut c = cluster(p);
        write(&mut c, 0, 300, 1111);
        assert_eq!(read(&mut c, 3, 300), 1111, "{p:?}: dirty data forwarded");
        // And node 0 still reads it (now shared).
        assert_eq!(read(&mut c, 0, 300), 1111, "{p:?}");
    });
}

#[test]
fn write_invalidates_remote_sharers() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(64), 5);
        assert_eq!(read(&mut c, 0, 64), 5);
        assert_eq!(read(&mut c, 1, 64), 5);
        let _ = c.drain_invalidated(NodeId(0));
        write(&mut c, 2, 64, 6);
        assert_eq!(read(&mut c, 0, 64), 6, "{p:?}: sharer sees new value");
        let invs = c.drain_invalidated(NodeId(0));
        assert!(
            invs.contains(&WordAddr(64).block()),
            "{p:?}: node 0 must observe the invalidation, got {invs:?}"
        );
    });
}

#[test]
fn successive_writers_chain_ownership() {
    both_protocols(|p| {
        let mut c = cluster(p);
        for (node, val) in [(0u8, 10u64), (1, 20), (2, 30), (3, 40)] {
            write(&mut c, node, 500, val);
        }
        assert_eq!(read(&mut c, 0, 500), 40, "{p:?}");
    });
}

#[test]
fn atomic_swap_returns_old_value() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(700), 9);
        let resp = run_op(
            &mut c,
            2,
            ProcReq::Atomic {
                id: 7,
                addr: WordAddr(700),
                value: 1,
            },
        );
        assert_eq!(resp.value, 9, "{p:?}: atomic returns old value");
        assert_eq!(read(&mut c, 0, 700), 1, "{p:?}");
    });
}

#[test]
fn atomics_serialize_across_nodes() {
    both_protocols(|p| {
        let mut c = cluster(p);
        // A chain of swaps: each returns the previous value; together they
        // witness a total order of read-modify-writes.
        let mut seen = Vec::new();
        for (node, val) in [(0u8, 1u64), (1, 2), (2, 3), (3, 4), (0, 5)] {
            let resp = run_op(
                &mut c,
                node,
                ProcReq::Atomic {
                    id: 0,
                    addr: WordAddr(900),
                    value: val,
                },
            );
            seen.push(resp.value);
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4], "{p:?}");
    });
}

#[test]
fn capacity_evictions_write_back_dirty_data() {
    both_protocols(|p| {
        let mut cfg = ClusterConfig::paper_default(2, p);
        cfg.node.l2_bytes = 4 * 64; // 4 lines
        cfg.node.l2_ways = 2;
        cfg.node.l1_bytes = 2 * 64;
        cfg.node.l1_ways = 2;
        let mut c = Cluster::new(cfg);
        // Write many distinct blocks to force dirty evictions.
        for i in 0..16u64 {
            write(&mut c, 0, i * 8, 1000 + i);
        }
        assert!(c.run_to_quiescence(200_000), "{p:?}: must drain writebacks");
        // All values visible from the other node afterwards.
        for i in 0..16u64 {
            assert_eq!(read(&mut c, 1, i * 8), 1000 + i, "{p:?}: block {i}");
        }
        let wb = c.cache_stats(NodeId(0)).writebacks;
        assert!(wb >= 10, "{p:?}: expected many writebacks, got {wb}");
    });
}

#[test]
fn correct_execution_raises_no_violations() {
    both_protocols(|p| {
        let mut c = cluster(p);
        for i in 0..20u64 {
            let node = (i % 4) as u8;
            write(&mut c, node, i * 8, i);
            let r = read(&mut c, ((i + 1) % 4) as u8, i * 8);
            assert_eq!(r, i);
        }
        assert!(c.run_to_quiescence(100_000), "{p:?}");
        let violations = c.finish();
        assert!(violations.is_empty(), "{p:?}: {violations:?}");
    });
}

#[test]
fn informs_flow_to_homes() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(0), 1);
        assert_eq!(read(&mut c, 1, 0), 1);
        write(&mut c, 2, 0, 2); // invalidates node 1's RO epoch -> inform
        assert_eq!(read(&mut c, 3, 0), 2); // downgrades node 2 -> inform
        assert!(c.run_to_quiescence(100_000));
        let sent: u64 = (0..4).map(|n| c.cache_stats(NodeId(n)).informs_sent).sum();
        assert!(sent >= 2, "{p:?}: informs sent = {sent}");
        let v = c.finish();
        assert!(v.is_empty(), "{p:?}: {v:?}");
    });
}

#[test]
fn l1_hits_do_not_reaccess_l2() {
    let mut c = cluster(Protocol::Directory);
    c.poke_word(WordAddr(64), 3);
    assert_eq!(read(&mut c, 0, 64), 3);
    let misses_before = c.cache_stats(NodeId(0)).l1_misses;
    for _ in 0..5 {
        assert_eq!(read(&mut c, 0, 64), 3);
    }
    let s = c.cache_stats(NodeId(0));
    assert_eq!(s.l1_misses, misses_before, "repeat reads hit L1");
    assert!(s.l1_hits >= 5);
}

#[test]
fn replay_reads_counted_separately() {
    let mut c = cluster(Protocol::Directory);
    c.poke_word(WordAddr(64), 3);
    assert_eq!(read(&mut c, 0, 64), 3);
    let resp = run_op(
        &mut c,
        0,
        ProcReq::ReplayRead {
            id: 1,
            addr: WordAddr(64),
        },
    );
    assert!(resp.replay);
    assert_eq!(resp.value, 3);
    let s = c.cache_stats(NodeId(0));
    assert_eq!(s.replay_reads, 1);
    assert_eq!(s.replay_l1_misses, 0, "line is L1-resident after the read");
}

#[test]
fn corrupted_cache_line_detected_by_ecc() {
    both_protocols(|p| {
        let mut c = cluster(p);
        write(&mut c, 0, 100, 50);
        let hit = c.node_mut(NodeId(0)).corrupt_l2(0, 13);
        assert!(hit.is_some());
        // The next local read checks ECC.
        let _ = read(&mut c, 0, 100);
        let violations = c.drain_violations();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::Coherence(CoherenceViolation::EccMismatch { .. })
            )),
            "{p:?}: {violations:?}"
        );
    });
}

#[test]
fn corrupted_line_detected_at_epoch_end_via_hash_chain() {
    both_protocols(|p| {
        let mut c = cluster(p);
        write(&mut c, 0, 100, 50);
        let _ = c.node_mut(NodeId(0)).corrupt_l2(0, 13).unwrap();
        // Remote writer forces the corrupt owner's epoch to end; the next
        // epoch's start hash (actual forwarded data) will not match the
        // chain only if forwarding strips corruption — here the corruption
        // travels with the data, so detection is via ECC at the supply
        // point.
        write(&mut c, 1, 100, 60);
        assert!(c.run_to_quiescence(100_000));
        let violations = c.finish();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Coherence(_))),
            "{p:?}: {violations:?}"
        );
    });
}

#[test]
fn directory_forget_owner_detected() {
    let mut c = cluster(Protocol::Directory);
    write(&mut c, 0, 100, 50);
    // The directory forgets node 0 owns the block...
    let addr = c
        .home_mut(WordAddr(100).block().home(4))
        .corrupt_forget_owner(0);
    assert!(addr.is_some());
    // ...so a new writer is granted stale memory data while node 0 still
    // holds an RW epoch. The epoch hash chain / overlap rules must fire.
    write(&mut c, 1, 100, 60);
    write(&mut c, 0, 100, 70); // old owner writes again, still thinks M
    assert!(c.run_to_quiescence(100_000));
    let violations = c.finish();
    assert!(
        violations
            .iter()
            .any(|v| matches!(v, Violation::Coherence(_))),
        "{violations:?}"
    );
}

#[test]
fn bogus_local_upgrade_detected_by_cet() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(100), 5);
        assert_eq!(read(&mut c, 0, 100), 5); // node 0 holds S
                                             // Queue the store, then fault the controller's upgrade decision:
                                             // the line silently flips S -> M instead of issuing a GetM, and
                                             // the store performs outside a Read-Write epoch.
        c.submit(
            NodeId(0),
            ProcReq::Write {
                id: 0,
                addr: WordAddr(100),
                value: 6,
            },
        );
        let addr = c.node_mut(NodeId(0)).corrupt_upgrade(0);
        assert!(addr.is_some());
        for _ in 0..10_000 {
            c.tick();
            if c.pop_resp(NodeId(0)).is_some() {
                break;
            }
        }
        let violations = c.drain_violations();
        assert!(
            violations.iter().any(|v| matches!(
                v,
                Violation::Coherence(CoherenceViolation::AccessOutsideEpoch { write: true, .. })
            )),
            "{p:?}: {violations:?}"
        );
    });
}

#[test]
fn memory_corruption_detected_on_next_fetch() {
    both_protocols(|p| {
        let mut c = cluster(p);
        c.poke_word(WordAddr(100), 5);
        // Fetch once so the home has the block resident, then corrupt it.
        assert_eq!(read(&mut c, 0, 100), 5);
        let home = WordAddr(100).block().home(4);
        assert!(c.home_mut(home).corrupt_memory(0, 3).is_some());
        // Force a re-fetch from memory: another node writes (invalidating
        // node 0) and writes back, then a third node reads from memory...
        // simplest: evict nothing, just have a second node read - it is
        // served from memory under snooping (owner none) or via DataS.
        let _ = read(&mut c, 1, 100);
        assert!(c.run_to_quiescence(100_000));
        let violations = c.finish();
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Coherence(_))),
            "{p:?}: {violations:?}"
        );
    });
}

#[test]
fn concurrent_requests_from_all_nodes_converge() {
    both_protocols(|p| {
        let mut c = cluster(p);
        // All four nodes hammer the same block plus private blocks.
        for round in 0..10u64 {
            for n in 0..4u8 {
                c.submit(
                    NodeId(n),
                    ProcReq::Write {
                        id: round * 8 + n as u64,
                        addr: WordAddr(8000),
                        value: round * 100 + n as u64,
                    },
                );
                c.submit(
                    NodeId(n),
                    ProcReq::Read {
                        id: round * 8 + n as u64 + 4,
                        addr: WordAddr(9000 + n as u64 * 8),
                    },
                );
            }
            for _ in 0..5000 {
                c.tick();
            }
            for n in 0..4u8 {
                while c.pop_resp(NodeId(n)).is_some() {}
            }
        }
        assert!(c.run_to_quiescence(200_000), "{p:?}");
        let final_val = read(&mut c, 0, 8000);
        assert!(final_val >= 900, "{p:?}: last round value, got {final_val}");
        let v = c.finish();
        assert!(v.is_empty(), "{p:?}: {v:?}");
    });
}

/// Snooping: our GetM for a block can be ordered while our writeback of
/// the same block still waits in the eviction buffer. The upgrade takes
/// the buffer back, yet the home, seeing our later PutM as the owner's
/// writeback, waits for its data — so the PutM's ordering point must
/// write the upgraded line back.
#[test]
fn snooping_upgrade_that_reclaims_its_writeback_still_writes_back() {
    let mut cfg = ClusterConfig::paper_default(2, Protocol::Snooping);
    // One line per cache, so blocks A and B conflict; a slow address
    // network leaves the upgrade unordered while B's fill evicts A.
    cfg.node.l1_bytes = 64;
    cfg.node.l1_ways = 1;
    cfg.node.l2_bytes = 64;
    cfg.node.l2_ways = 1;
    cfg.tree_latency = 500;
    let mut c = Cluster::new(cfg);
    let (a, b) = (0u64, 16u64);
    write(&mut c, 0, a, 99);
    assert_eq!(read(&mut c, 1, a), 99, "node 0 keeps A in O");
    c.submit(
        NodeId(0),
        ProcReq::Read {
            id: 1,
            addr: WordAddr(b),
        },
    );
    for _ in 0..400 {
        c.tick();
    }
    c.submit(
        NodeId(0),
        ProcReq::Write {
            id: 2,
            addr: WordAddr(a + 1),
            value: 7,
        },
    );
    let mut upgrade_behind_writeback = false;
    let mut done = Vec::new();
    for _ in 0..10_000 {
        c.tick();
        let states: Vec<String> = c.node_mut(NodeId(0)).transient_states().collect();
        upgrade_behind_writeback |= ["cache:IM_AD", "cache:WB_O"]
            .iter()
            .all(|s| states.iter().any(|t| t == s));
        done.extend(std::iter::from_fn(|| c.pop_resp(NodeId(0))).map(|r| r.id));
        if done.len() == 2 {
            break;
        }
    }
    assert!(upgrade_behind_writeback, "GetM behind our writeback");
    done.sort_unstable();
    assert_eq!(done, vec![1, 2]);
    assert!(c.run_to_quiescence(20_000), "home receives the writeback");
    assert_eq!(c.home_mut(NodeId(0)).transient_states().count(), 0);
    assert_eq!(read(&mut c, 1, a), 99);
    assert_eq!(read(&mut c, 1, a + 1), 7);
    write(&mut c, 1, a, 5);
    assert_eq!(read(&mut c, 0, a), 5);
    let owners = (0..2)
        .flat_map(|n| c.node_mut(NodeId(n)).probe_l2_states())
        .filter(|&(blk, s)| blk == WordAddr(a).block() && s.dirty())
        .count();
    assert_eq!(owners, 1, "a single owner of A");
    assert!(c.run_to_quiescence(20_000));
    let v = c.finish();
    assert!(v.is_empty(), "{v:?}");
}
