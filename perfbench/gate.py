"""The correctness gate every run passes outside its timed region.

- The hash-chained ledger verifies (and the certificate chain when sharded),
  recomputed from the system after the run, not taken from its report.
- A fresh replica replaying the ledger reaches the same state hash
  (``consistency_check``).
- Every rep of one seed, traced or not, yields the same fingerprint: the
  decision digest, the state hash and every simulated figure.

:func:`self_test` proves the gate is not blind: a tampered block and a
flipped commit decision must each trip it, and a held-out seed must change
the fingerprint while passing every check.
"""

from __future__ import annotations

from suite import Workload

#: blocks in each short system the self-test builds
SELF_TEST_BLOCKS = 4


def is_sharded(system) -> bool:
    return hasattr(system, "group")


def ledger_ok(system) -> bool:
    if is_sharded(system):
        return system.group.ledgers_ok()
    return system.node.ledger.verify_chain()


def fingerprint(metrics) -> tuple:
    """Everything a wall-only change must leave bit-identical."""
    extra = metrics.extra
    return (
        extra["decision_digest"],
        extra["state_hash"],
        extra.get("cert_head"),
        metrics.committed,
        metrics.aborted,
        metrics.false_aborts,
        metrics.dangerous_structure_hits,
        metrics.sim_time_us,
        tuple(metrics.latencies_us),
        metrics.cpu_utilization,
        metrics.io_reads,
        metrics.io_writes,
        metrics.buffer_hits,
        metrics.buffer_misses,
    )


def check(system, metrics, reference: tuple | None) -> list[str]:
    """Problems with one finished rep; an empty list means it passed."""
    problems = []
    if not ledger_ok(system):
        problems.append("ledger hash chain does not verify")
    if is_sharded(system) and not system.cert_log.verify_chain():
        problems.append("certificate chain does not verify")
    if reference is not None and fingerprint(metrics) != reference:
        problems.append("fingerprint differs from the seed's first rep")
    return problems


def check_replica(system) -> list[str]:
    if not system.consistency_check():
        return ["a replica replaying the ledger reaches another state hash"]
    return []


def _node_zero(system):
    return system.group.nodes[0] if is_sharded(system) else system.node


def flip_first_commit(system) -> None:
    """Force one committing writer of the first block to abort instead.

    Wraps replica (shard 0) ``finish_block`` — the phase that applies a
    block's decisions — so the victim is dropped exactly as a cross-shard
    veto would drop it.
    """
    node = _node_zero(system)
    finish = node.finish_block
    flipped: list = []

    def finish_flipped(prepared, abort_tids=frozenset()):
        if not flipped:
            victim = next(
                t.tid
                for t in prepared.txns
                if not t.aborted and t.tid not in abort_tids and t.write_set
            )
            flipped.append(victim)
            abort_tids = abort_tids | {victim}
        return finish(prepared, abort_tids)

    node.finish_block = finish_flipped


def tamper_block(system) -> None:
    """Rewrite one transaction in the middle ledger block of shard 0."""
    ledger = _node_zero(system).ledger
    block = ledger[len(ledger) // 2]
    block.specs = block.specs[1:] + block.specs[:1]


def self_test(
    workload: Workload, seed: int, held_out_seed: int
) -> tuple[list[str], bool]:
    """Problems with the gate itself (an empty list means it can see), and
    whether ``held_out_seed`` changed the decision digest itself.

    The digest records only TIDs and decisions, so it cannot change where
    every transaction commits (``ycsb-hotspot``); the state hash in the
    fingerprint carries the seed there.
    """

    def short_run(run_seed: int, mutate=None):
        system = workload.build(run_seed, num_blocks=SELF_TEST_BLOCKS)
        if mutate is not None:
            mutate(system)
        return system, system.run()

    problems = []
    system, metrics = short_run(seed)
    reference = fingerprint(metrics)
    if check(system, metrics, reference) or check_replica(system):
        problems.append("an untouched short run fails the gate")
    tamper_block(system)
    if not check(system, metrics, reference):
        problems.append("a tampered block passes the gate")
    flipped_system, flipped = short_run(seed, flip_first_commit)
    if not check(flipped_system, flipped, reference):
        problems.append("a flipped decision passes the gate")
    held_system, held = short_run(held_out_seed)
    if check(held_system, held, None) or check_replica(held_system):
        problems.append("the held-out seed fails the gate")
    if fingerprint(held) == reference:
        problems.append("the held-out seed does not change the fingerprint")
    digest = metrics.extra["decision_digest"]
    return problems, held.extra["decision_digest"] != digest
