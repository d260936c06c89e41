"""The chaos harness: randomized fault plans + leak auditing.

``run_chaos`` drives a clone-fleet workload (boots, clone batches from
Dom0 and from inside guests, COW writes, transactional Xenstore
updates, destroys, host traffic) on a platform armed with a fault plan,
then tears everything down and audits the platform for leaked frames,
grants, event endpoints, Xenstore nodes and switch ports.
``run_kvm_chaos`` is the same workload against the KVM port. Both
return a JSON-ready payload whose fingerprint covers every
deterministic output, so two runs at the same seed must produce
byte-identical payloads; :data:`repro.scenarios.SCENARIOS` pins both.

Platform construction is imported inside the runners, so importing
the audits does not pull in a platform stack.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Mapping

from repro.errors import ReproError
from repro.faults.plan import FaultPlan


def _audit_frames(frames: Any, live: set[int], guests: Mapping[int, Any],
                 noun: str) -> list[str]:
    """The frame-table half of both backends' audits, as strings.

    Frame conservation; no frames left with an owner that is neither
    ``live`` nor one of the host's own (Dom0, ``dom_cow``, Xen); and
    the ledger per owner: what each of ``guests`` (the live
    unprivileged guests, by id) maps privately is what the frame table
    charges it. ``noun`` names a guest in the messages.
    """
    violations: list[str] = []
    try:
        frames.check_invariants()
    except AssertionError as error:
        violations.append(f"frame table: {error}")

    from repro.xen.domid import DOM0, DOMID_COW, XEN_OWNER

    accounted = live | {DOM0, DOMID_COW, XEN_OWNER}
    for owner, owned in sorted(frames._owned.items()):
        if owner not in accounted:
            violations.append(f"dead {noun} {owner} still owns {owned} frames")

    for guest_id, guest in guests.items():
        held = guest.machine_pages()
        owned = frames.pages_owned(guest_id)
        if held != owned:
            violations.append(
                f"{noun} {guest_id} holds {held} machine pages, the frame "
                f"table charges it {owned}")
    return violations


def _audit_network(net: Any, guest_ports: Iterable[Any]) -> list[str]:
    """The host-network half of both backends' audits, as strings: no
    bridge, bond or OVS group of ``net`` (a
    :class:`~repro.net.host.HostNetwork`) holds a port other than its
    uplink and ``guest_ports``, the live guests' ports."""
    live = {net.host_port, *guest_ports}
    violations: list[str] = []
    for name, bridge in net.bridges.items():
        for port in bridge.ports:
            if port not in live:
                violations.append(
                    f"bridge {name} holds dead port {port.name}")
    for name, bond in net.bonds.items():
        for port in bond.slaves:
            if port not in live:
                violations.append(f"bond {name} holds dead slave {port.name}")
    for group_id, group in net.ovs_groups.items():
        for port in group.buckets:
            if port not in live:
                violations.append(
                    f"OVS group {group_id} holds dead bucket {port.name}")
    return violations


def audit_platform(platform: Any) -> list[str]:
    """Leak oracle: every resource-conservation violation, as strings.

    Intended to run after all guests are destroyed (the chaos harness
    does), but every check except the frame-pool-refill one is valid at
    any quiescent point — the rollback-invariant tests reuse it
    mid-scenario.
    """
    from repro.xen.domid import DOM0

    hyp = platform.hypervisor
    live = set(hyp.domains)
    violations = _audit_frames(
        hyp.frames, live,
        {domid: domain for domid, domain in hyp.domains.items()
         if not domain.privileged}, noun="domain")

    for domain in hyp.domains.values():
        for channel in domain.events.ports.values():
            for child_domid, _port in channel.child_endpoints:
                if child_domid not in live:
                    violations.append(
                        f"domain {domain.domid} port {channel.port} still "
                        f"lists dead child endpoint {child_domid}")
        for entry in domain.grants.entries.values():
            for mapper in entry.mapped_by:
                if mapper not in live:
                    violations.append(
                        f"domain {domain.domid} grant {entry.gref} still "
                        f"mapped by dead domain {mapper}")

    cloneop = platform.cloneop
    if cloneop._pending:
        violations.append(
            f"clone second stages still pending: {sorted(cloneop._pending)}")
    if len(cloneop.ring):
        violations.append(
            f"{len(cloneop.ring)} stale clone notifications in the ring")
    if cloneop._failed:
        violations.append(
            f"unconsumed clone failures: {sorted(cloneop._failed)}")
    for domid in cloneop._baselines:
        if domid not in live:
            violations.append(f"reset baseline leaked for dead domain {domid}")

    store = platform.xenstore
    recount = store._count_subtree(store.root) - 1
    if recount != store.node_count:
        violations.append(
            f"xenstore node_count drift: cached {store.node_count}, "
            f"actual {recount}")
    for domid in store.introduced:
        if domid not in live and domid != DOM0:
            violations.append(f"dead domain {domid} still introduced "
                              "to xenstored")
    for domid_dir in _domain_dirs(store):
        if domid_dir not in live and domid_dir != DOM0:
            violations.append(
                f"xenstore subtree /local/domain/{domid_dir} leaked")
    if store.transactions.open_count:
        violations.append(
            f"{store.transactions.open_count} xenstore transactions left open")

    dom0 = platform.dom0
    violations += _audit_network(dom0, dom0.netback.backends.values())
    return violations


def _domain_dirs(store: Any) -> list[int]:
    """Domids with a ``/local/domain/<id>`` directory in the store."""
    try:
        entries = store.directory("/local/domain")
    except ReproError:
        return []
    return [int(entry) for entry in entries if entry.isdigit()]


def audit_kvm_platform(platform: Any) -> list[str]:
    """Leak oracle for the KVM backend, mirroring :func:`audit_platform`.

    Checks the frame table as :func:`_audit_frames` does, stale child
    links, and the host network as :func:`_audit_network` does.
    """
    host = platform.host
    live = set(host.vms)
    violations = _audit_frames(host.frames, live, host.vms,
                              noun="VMM process")

    for vm in host.vms.values():
        for child in vm.children:
            if child not in live:
                violations.append(
                    f"VM {vm.pid} still lists dead child {child}")

    violations += _audit_network(
        host, [vm.net for vm in host.vms.values() if vm.net is not None])
    return violations


# ----------------------------------------------------------------------
# the two chaos runners
#
# They differ at eight steps: platform, boot, clone, guest lookup,
# Xenstore transaction, traffic, destroy and audit. Everything else is
# one of the helpers below.
# ----------------------------------------------------------------------
def _rounds(faults: int, rounds: int | None) -> int:
    """Workload rounds: by default they scale with the fault budget, so
    the workload outlives the armed specs and also exercises the
    no-fault-left steady state, not just back-to-back failures."""
    return max(3, (faults * 3) // 4) if rounds is None else rounds


def _new_report(seed: int, plan: FaultPlan) -> dict[str, Any]:
    """The counters a chaos run fills in, in payload order."""
    return {"seed": seed, "plan": plan.name, "clones_attempted": 0,
            "clones_succeeded": 0, "clone_errors": 0, "txn_attempts": 0}


@contextmanager
def disarmed(injector: Any) -> Iterator[None]:
    """Suspend ``injector`` for the block: storms boot their parent
    guests fault-free, because their target is the paths that follow."""
    if injector.enabled:
        injector.active = False
    try:
        yield
    finally:
        if injector.enabled:
            injector.active = True


def _clone_batch(report: dict[str, Any], clone: Callable[..., list[int]],
                 root: int, batch: int) -> list[int]:
    """One clone batch; an injected fault may abort all of it."""
    report["clones_attempted"] += batch
    try:
        children = clone(root, count=batch)
    except ReproError:
        report["clone_errors"] += 1
        children = []
    report["clones_succeeded"] += len(children)
    return children


def _touch(child: Any, rng: Any) -> None:
    """Deterministic COW writes into a live clone's first segment."""
    if child is None or not child.memory.segments:
        return
    try:
        child.memory.write_range(child.memory.segments[0].pfn_start,
                                 rng.randint(1, 4))
    except ReproError:
        pass


def _family_traffic(net: Any, ip: str, round_index: int) -> None:
    """One host packet towards a clone family, through the host
    network's family switch (exercises the bond or OVS group)."""
    try:
        net.send_to_guest(ip, 9000, payload=round_index,
                          src_port=40000 + round_index)
    except ReproError:
        pass


def _destroy(report: dict[str, Any], destroy: Callable[[int], Any],
             guest: int) -> None:
    """Destroy one guest; an injected fault counts as an error."""
    try:
        destroy(guest)
    except ReproError:
        report["clone_errors"] += 1


def _destroy_victim(report: dict[str, Any], destroy: Callable[[int], Any],
                    children: list[int], rng: Any) -> None:
    """Destroy one child per round: teardown interleaved with injection
    must not leak either."""
    if children:
        _destroy(report, destroy, children[rng.randint(0, len(children) - 1)])


def _finish(report: dict[str, Any], destroy: Callable[[int], Any],
            guests: list[int], audit: Callable[[Any], list[str]],
            platform: Any) -> dict[str, Any]:
    """Full teardown, leak audit, fault counters, clock, fingerprint."""
    from repro.scenarios import fingerprint

    for guest in guests:
        _destroy(report, destroy, guest)
    report["violations"] = audit(platform)
    report["fault_stats"] = platform.faults.report() \
        if platform.faults.enabled else {}
    report["clock_ms"] = round(platform.clock.now, 6)
    report["fingerprint"] = fingerprint(report)
    return report


def run_kvm_chaos(seed: int = 0xC10E, faults: int = 100,
                  plan: FaultPlan | None = None, parents: int = 2,
                  batch: int = 3, rounds: int | None = None
                  ) -> dict[str, Any]:
    """The chaos workload against the KVM backend.

    Same shape as :func:`run_chaos` — boot parents disarmed, then clone
    batches, COW writes, family traffic and interleaved destroys under
    injection, full teardown, leak audit, deterministic fingerprint.
    Randomized plans draw from :data:`repro.faults.sites.KVM_SITES`,
    the registry slice the KVM_CLONE_VM path fires. There is no
    Xenstore on this backend, so ``txn_attempts`` stays zero.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.faults.sites import KVM_SITES
    from repro.kvm.platform import KvmPlatform
    from repro.sim.units import MIB

    if plan is None:
        plan = FaultPlan.randomized(seed, faults=faults,
                                    sites=list(KVM_SITES))
    platform = KvmPlatform(seed=seed, fault_plan=plan)
    report = _new_report(seed, plan)
    rng = platform.rng.fork("chaos-workload")
    with disarmed(platform.faults):
        roots = [platform.create_vm(f"chaos{i}", 16 * MIB,
                                    ip=f"10.0.9.{i + 1}", max_clones=256,
                                    app=UdpServerApp()).pid
                 for i in range(parents)]

    for round_index in range(_rounds(faults, rounds)):
        for root in roots:
            children = _clone_batch(report, platform.clone, root, batch)
            for child_pid in children:
                _touch(platform.host.vms.get(child_pid), rng)

            parent = platform.host.vms.get(root)
            if parent is not None and parent.children \
                    and parent.net is not None:
                _family_traffic(platform.host, parent.net.ip, round_index)

            _destroy_victim(report, platform.destroy, children, rng)

    return _finish(report, platform.destroy, sorted(platform.host.vms),
                   audit_kvm_platform, platform)


def run_chaos(seed: int = 0xC10E, faults: int = 100,
              plan: FaultPlan | None = None, parents: int = 2,
              batch: int = 3, rounds: int | None = None
              ) -> dict[str, Any]:
    """One chaos run: workload under injection, teardown, audit.

    Every step that can fail is wrapped: an injected fault may abort a
    clone batch (or a single child within one), and the workload keeps
    going — exactly the graceful degradation the hardening promises.
    Returns the payload: the run's counters, ``violations``,
    ``fault_stats``, ``clock_ms`` and a ``fingerprint`` over all of
    them.
    """
    from repro.apps.udp_server import UdpServerApp
    from repro.platform import Platform
    from repro.toolstack.config import DomainConfig, VifConfig

    if plan is None:
        plan = FaultPlan.randomized(seed, faults=faults)
    platform = Platform.create(seed=seed, fault_plan=plan)
    report = _new_report(seed, plan)
    rng = platform.rng.fork("chaos-workload")
    handle = platform.dom0.handle
    with disarmed(platform.faults):
        roots = [platform.xl.create(
            DomainConfig(name=f"chaos{i}", memory_mb=4,
                         vifs=[VifConfig(ip=f"10.0.9.{i + 1}")],
                         max_clones=256),
            app=UdpServerApp()).domid for i in range(parents)]

    for round_index in range(_rounds(faults, rounds)):
        for root in roots:
            if root not in platform.hypervisor.domains:
                continue
            children = _clone_batch(report, platform.xl.clone, root, batch)
            for child_domid in children:
                _touch(platform.hypervisor.domains.get(child_domid), rng)

            # Transactional Xenstore update with bounded retry.
            def _bump(h: Any, tid: int,
                      path: str = f"/chaos/round{round_index}/d{root}") -> None:
                h.t_write(tid, path, str(round_index))

            try:
                handle.run_transaction(_bump)
                report["txn_attempts"] += 1
            except ReproError:
                report["clone_errors"] += 1

            parent = platform.hypervisor.domains.get(root)
            if parent is not None and parent.children:
                vif = parent.frontends.get("vif")
                if vif:
                    _family_traffic(platform.dom0, vif[0].ip, round_index)

            _destroy_victim(report, platform.xl.destroy, children, rng)

    return _finish(report, platform.xl.destroy,
                   sorted(platform.hypervisor.domains), audit_platform,
                   platform)
