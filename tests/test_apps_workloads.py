"""Integration tests: the evaluation workloads behave as the paper says."""

import pytest

from repro import DomainConfig, Platform
from repro.apps.faas import (
    FaasBackendType,
    FaasConfig,
    OpenFaasGateway,
)
from repro.apps.fuzzing import FuzzMode, FuzzSession
from repro.apps.memhog import CONTROL_PORT, MemhogApp
from repro.apps.nginx import NginxCloneCluster, NginxProcessCluster
from repro.apps.redis import (
    RedisApp,
    RedisProcessBaseline,
    bgsave_unikernel,
    redis_unikernel_config,
)
from repro.apps.udp_server import UdpServerApp, unique_clone_port
from repro.kvm.platform import KvmPlatform
from repro.net.packets import Flow, Packet
from repro.sim.units import GIB, MIB
from repro.toolstack.config import P9Config
from tests.conftest import udp_config


# ----------------------------------------------------------------------
# UDP server (Fig 4/5 workload)
# ----------------------------------------------------------------------
def test_udp_clones_bind_unique_ports(platform):
    parent = platform.xl.create(udp_config("u", max_clones=8),
                                app=UdpServerApp())
    children = platform.cloneop.clone(parent.domid, count=3)
    ports = set()
    for child_id in children:
        app = platform.hypervisor.get_domain(child_id).guest.app
        ports.add(app.listen_port)
        assert app.listen_port == unique_clone_port(child_id)
    assert len(ports) == 3


def test_udp_clone_reachable_through_bond(platform):
    parent = platform.xl.create(udp_config("u", max_clones=8),
                                app=UdpServerApp())
    child_id = platform.cloneop.clone(parent.domid)[0]
    child_app = platform.hypervisor.get_domain(child_id).guest.app
    echoed = []
    platform.dom0.listen(6000, lambda pkt: echoed.append(pkt.payload))
    # Find a source port whose flow hashes to the clone's slave, as the
    # paper does by assigning ports to avoid collisions.
    bond = platform.dom0.family_bond("10.0.1.1")
    for _ in range(64):
        platform.dom0.send_to_guest("10.0.1.1", child_app.listen_port,
                                    payload="hi", src_port=6000)
        if child_app.requests_served:
            break
    assert echoed  # someone echoed; family serves the shared IP
    assert len(bond.slaves) == 2


# ----------------------------------------------------------------------
# memhog (Fig 6 workload)
# ----------------------------------------------------------------------
def test_memhog_second_clone_faster_than_first():
    platform = Platform.create(total_memory_bytes=24 * GIB,
                               dom0_memory_bytes=4 * GIB)
    config = DomainConfig(name="m", memory_mb=1032, kernel="unikraft-memhog",
                          max_clones=8)
    domain = platform.xl.create(config, app=MemhogApp(1024 * MIB))
    api = domain.guest.api
    t0 = platform.now
    domain.guest.app.trigger_clone(api)
    first = platform.now - t0
    t0 = platform.now
    domain.guest.app.trigger_clone(api)
    second = platform.now - t0
    assert second < first
    platform.check_invariants()


def test_memhog_clone_scales_with_memory():
    platform = Platform.create(total_memory_bytes=24 * GIB,
                               dom0_memory_bytes=4 * GIB)
    durations = {}
    for mb in (16, 1024):
        config = DomainConfig(name=f"m{mb}", memory_mb=mb + 8,
                              kernel="unikraft-memhog", max_clones=8)
        domain = platform.xl.create(config, app=MemhogApp(mb * MIB))
        domain.guest.app.trigger_clone(domain.guest.api)
        t0 = platform.now
        domain.guest.app.trigger_clone(domain.guest.api)
        durations[mb] = platform.now - t0
    assert durations[1024] > 2 * durations[16]


def test_memhog_fork_via_network_trigger(platform):
    config = udp_config("m", memory_mb=16, max_clones=4)
    config.kernel = "unikraft-memhog"
    domain = platform.xl.create(config, app=MemhogApp(4 * MIB))
    platform.dom0.send_to_guest("10.0.1.1", 7000, payload="fork")
    assert domain.guest.app.clones_triggered == 1
    assert platform.guest_count() == 2


@pytest.mark.parametrize("backend", ["xen", "kvm"])
def test_memhog_clone_forks_itself_on_a_fork_packet(backend):
    """A clone inherits its parent's trigger server bound to its own
    app: a fork packet to the clone forks the clone, not the parent."""
    if backend == "xen":
        platform = Platform.create()
        config = udp_config("m", memory_mb=16, max_clones=4)
        config.kernel = "unikraft-memhog"
        domain = platform.xl.create(config, app=MemhogApp(4 * MIB))
        parent, app, api = domain, domain.guest.app, domain.guest.api
        lookup = platform.hypervisor.get_domain
    else:
        platform = KvmPlatform()
        parent = platform.create_vm("m", 16 * MIB, ip="10.0.1.1",
                                    max_clones=4, app=MemhogApp(4 * MIB))
        app, api = parent.app, parent.api
        lookup = platform.host.get_vm
    first = app.trigger_clone(api)
    clone = lookup(first[0])
    receiver = clone.guest if backend == "xen" else clone
    receiver.dispatch_packet(Packet(
        "00:00:00:00:00:01", "00:16:3e:00:00:00",
        Flow("10.0.0.254", "10.0.1.1", 5555, CONTROL_PORT), payload="fork"))
    assert list(parent.children) == first
    assert len(clone.children) == 1
    assert app.clones_triggered == 1
    assert receiver.app.clones_triggered == 1
    platform.check_invariants()


# ----------------------------------------------------------------------
# NGINX (Fig 7)
# ----------------------------------------------------------------------
def test_nginx_clusters_scale_linearly(big_platform):
    rng = big_platform.rng.fork("t")
    one_cluster = NginxCloneCluster(big_platform, 1, ip="10.0.2.1")
    one = one_cluster.run_wrk(rng)
    one_cluster.destroy()  # or its pinned worker would share cores
    four_cluster = NginxCloneCluster(big_platform, 4, ip="10.0.2.4")
    four = four_cluster.run_wrk(rng)
    assert 3.5 <= four.throughput_rps / one.throughput_rps <= 4.5


def test_nginx_colocated_clusters_contend(big_platform):
    """Leaving another pinned cluster running steals CPU share - the
    credit scheduler makes contention emergent."""
    rng = big_platform.rng.fork("contend")
    alone_cluster = NginxCloneCluster(big_platform, 1, ip="10.0.2.31")
    alone = alone_cluster.run_wrk(rng).throughput_rps
    # A second cluster pinned to the same core 0:
    other = NginxCloneCluster(big_platform, 1, ip="10.0.2.32")
    contended = alone_cluster.run_wrk(rng).throughput_rps
    assert contended < 0.6 * alone
    other.destroy()
    alone_cluster.destroy()


def test_nginx_clones_beat_processes(big_platform):
    rng = big_platform.rng.fork("t")
    clones = NginxCloneCluster(big_platform, 4, ip="10.0.2.1").run_wrk(rng)
    procs = NginxProcessCluster(big_platform.clock, big_platform.costs,
                                4).run_wrk(rng)
    assert clones.throughput_rps > procs.throughput_rps


def test_nginx_worker_count_validated(big_platform):
    with pytest.raises(ValueError):
        NginxCloneCluster(big_platform, 0)
    with pytest.raises(ValueError):
        NginxCloneCluster(big_platform, 2 * big_platform.hypervisor.cpus + 1)


def test_nginx_workers_pinned_to_distinct_cores(big_platform):
    cluster = NginxCloneCluster(big_platform, 3, ip="10.0.2.9")
    cores = {big_platform.hypervisor.get_domain(d).vcpus[0].affinity
             for d in cluster.clone_ids}
    cores.add(cluster.master.vcpus[0].affinity)
    assert len(cores) == 3


# ----------------------------------------------------------------------
# Redis (Fig 8)
# ----------------------------------------------------------------------
def test_redis_clone_save_writes_rdb(big_platform):
    domain = big_platform.xl.create(redis_unikernel_config("r"),
                                    app=RedisApp())
    app = domain.guest.app
    app.mass_insert(domain.guest.api, 1000)
    timings = bgsave_unikernel(big_platform, domain)
    assert timings.keys == 1000
    assert timings.save_ms > 0
    assert big_platform.dom0.hostfs.size("/srv/redis/dump.rdb") > 0
    # The saver clone exits; only the server remains.
    assert big_platform.guest_count() == 1


def test_redis_save_time_grows_with_keys(big_platform):
    domain = big_platform.xl.create(redis_unikernel_config("r"),
                                    app=RedisApp())
    app = domain.guest.app
    bgsave_unikernel(big_platform, domain)  # first (slow) save
    app.mass_insert(domain.guest.api, 1000)
    small = bgsave_unikernel(big_platform, domain)
    app.mass_insert(domain.guest.api, 500_000)
    large = bgsave_unikernel(big_platform, domain)
    assert large.save_ms > 10 * small.save_ms


def test_redis_io_clone_cost_amortized(big_platform):
    """Paper: "the constant cost of I/O cloning is amortized for larger
    database updates"."""
    domain = big_platform.xl.create(redis_unikernel_config("r"),
                                    app=RedisApp())
    app = domain.guest.app
    bgsave_unikernel(big_platform, domain)
    t = bgsave_unikernel(big_platform, domain)
    assert t.fork_ms > t.save_ms  # empty DB: clone cost dominates
    app.mass_insert(domain.guest.api, 1_000_000)
    t = bgsave_unikernel(big_platform, domain)
    assert t.save_ms > t.fork_ms  # large DB: serialization dominates


def test_redis_process_baseline_matches_shape(big_platform):
    vm_config = DomainConfig(
        name="alpine", memory_mb=512, kernel="alpine-linux",
        p9fs=[P9Config(tag="d", export_root="/srv/rvm", mount_point="/mnt")])
    vm = big_platform.xl.create(vm_config)
    baseline = RedisProcessBaseline(big_platform, vm)
    baseline.bgsave()
    empty = baseline.bgsave()
    baseline.mass_insert(1_000_000)
    full = baseline.bgsave()
    assert full.fork_ms > empty.fork_ms
    assert full.save_ms > 100 * max(empty.save_ms, 0.01)


# ----------------------------------------------------------------------
# Fuzzing (Fig 9)
# ----------------------------------------------------------------------
def test_fuzzing_clone_much_faster_than_noclone(platform):
    clone = FuzzSession(platform, FuzzMode.UNIKRAFT_CLONE, baseline=True)
    clone_report = clone.run(duration_s=5.0)
    p2 = Platform.create()
    noclone = FuzzSession(p2, FuzzMode.UNIKRAFT_NOCLONE, baseline=True)
    noclone_report = noclone.run(duration_s=5.0)
    assert clone_report.mean_throughput > 50 * noclone_report.mean_throughput


def test_fuzzing_ordering_matches_paper():
    """process > unikraft+clone > module >> noclone."""
    means = {}
    for mode in (FuzzMode.LINUX_PROCESS, FuzzMode.UNIKRAFT_CLONE,
                 FuzzMode.LINUX_MODULE):
        p = Platform.create()
        report = FuzzSession(p, mode, baseline=True).run(duration_s=5.0)
        means[mode] = report.mean_throughput
    assert means[FuzzMode.LINUX_PROCESS] > means[FuzzMode.UNIKRAFT_CLONE]
    assert means[FuzzMode.UNIKRAFT_CLONE] > means[FuzzMode.LINUX_MODULE]


def test_fuzzing_reset_stats_match_paper(platform):
    report = FuzzSession(platform, FuzzMode.UNIKRAFT_CLONE,
                         baseline=True).run(duration_s=3.0)
    assert report.avg_dirty_pages == pytest.approx(3.0)
    assert 100 <= report.avg_reset_us <= 160  # ~125 us in the paper
    module = FuzzSession(Platform.create(), FuzzMode.LINUX_MODULE,
                         baseline=True).run(duration_s=3.0)
    assert module.avg_dirty_pages == pytest.approx(8.0)
    assert module.avg_reset_us > 1.8 * report.avg_reset_us


def test_fuzzing_baseline_less_variable(platform):
    base = FuzzSession(platform, FuzzMode.UNIKRAFT_CLONE,
                       baseline=True).run(duration_s=8.0)
    p2 = Platform.create()
    actual = FuzzSession(p2, FuzzMode.UNIKRAFT_CLONE,
                         baseline=False).run(duration_s=8.0)

    def spread(samples):
        values = [s.execs_per_s for s in samples]
        return max(values) - min(values)

    assert spread(actual.samples) > spread(base.samples)
    assert actual.mean_throughput < base.mean_throughput


def test_fuzzing_teardown_cleans_up(platform):
    session = FuzzSession(platform, FuzzMode.UNIKRAFT_CLONE, baseline=True)
    session.run(duration_s=1.0)
    assert platform.guest_count() == 0
    platform.check_invariants()


# ----------------------------------------------------------------------
# FaaS (Fig 10 / Fig 11)
# ----------------------------------------------------------------------
def make_gateway(backend: FaasBackendType) -> OpenFaasGateway:
    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    return OpenFaasGateway(platform, backend)


def test_faas_unikernels_ready_much_sooner():
    container = make_gateway(FaasBackendType.CONTAINER).run(duration_s=60)
    unikernel = make_gateway(FaasBackendType.UNIKERNEL).run(duration_s=60)
    assert unikernel.ready_times_s[0] < 6
    assert container.ready_times_s[0] > 25


def test_faas_unikernels_track_load_closely():
    timeline = make_gateway(FaasBackendType.UNIKERNEL).run(duration_s=60)
    at_30 = [v for t, v in timeline.throughput if 28 <= t <= 32]
    assert min(at_30) > 1100  # 4 instances serving by then


def test_faas_container_memory_grows_in_220mb_steps():
    timeline = make_gateway(FaasBackendType.CONTAINER).run(duration_s=120)
    first = timeline.memory[1][1]
    last = timeline.memory[-1][1]
    instances = len(timeline.ready_times_s)
    assert first == pytest.approx(90, abs=5)
    assert last == pytest.approx(90 + 220 * instances, abs=30)


def test_faas_unikernel_memory_grows_in_tens_of_mb():
    timeline = make_gateway(FaasBackendType.UNIKERNEL).run(duration_s=120)
    first = timeline.memory[1][1]
    last = timeline.memory[-1][1]
    instances = len(timeline.ready_times_s)
    per_instance = (last - first) / max(1, instances)
    assert 25 <= per_instance <= 50  # "35 MB on average"
    assert 60 <= first <= 110        # "85 MB for the first unikernel"


def test_faas_scaling_capped_by_max_replicas():
    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    gateway = OpenFaasGateway(platform, FaasBackendType.UNIKERNEL,
                              config=FaasConfig(max_replicas=2))
    gateway.run(duration_s=120)
    assert len(gateway.instances) == 2


# ----------------------------------------------------------------------
# FaaS extensions: demand profiles and scale-down
# ----------------------------------------------------------------------
def test_faas_ramp_demand_defers_scaling():
    from repro.apps.demand import RampDemand

    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    gateway = OpenFaasGateway(
        platform, FaasBackendType.UNIKERNEL,
        demand_rps=RampDemand(start_rps=5, end_rps=1200, duration_s=60))
    gateway.run(duration_s=30)
    # At t=0 demand (5 rps) is below the 10-rps threshold: the first
    # check must NOT scale, unlike the constant-demand experiment.
    assert not gateway.timeline.ready_times_s or \
        gateway.timeline.ready_times_s[0] > 10


def test_faas_scale_down_after_burst():
    from repro.apps.demand import StepDemand
    from repro.apps.faas import FaasConfig

    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    demand = StepDemand(steps=((0.0, 1200.0), (60.0, 5.0)))
    gateway = OpenFaasGateway(
        platform, FaasBackendType.UNIKERNEL,
        config=FaasConfig(scale_down_rps=8.0, max_replicas=4),
        demand_rps=demand)
    gateway.run(duration_s=150)
    assert gateway.timeline.scale_downs_s  # shrank after the burst
    assert len(gateway.instances) < 4
    # Destroyed clones returned their memory.
    platform.check_invariants()


def test_faas_scale_down_never_below_min():
    from repro.apps.faas import FaasConfig

    platform = Platform.create(total_memory_bytes=32 * GIB,
                               dom0_memory_bytes=8 * GIB, cpus=10)
    gateway = OpenFaasGateway(
        platform, FaasBackendType.UNIKERNEL,
        config=FaasConfig(scale_down_rps=8.0, min_replicas=1),
        demand_rps=1.0)
    gateway.run(duration_s=100)
    assert len(gateway.instances) == 1


def test_demand_profiles_shapes():
    from repro.apps.demand import (BurstDemand, ConstantDemand,
                                   DiurnalDemand, RampDemand, StepDemand,
                                   as_profile)

    assert as_profile(100).rps_at(5) == 100
    assert ConstantDemand(7).rps_at(1e9) == 7
    step = StepDemand(steps=((0, 10), (50, 99)))
    assert step.rps_at(49) == 10 and step.rps_at(50) == 99
    ramp = RampDemand(0, 100, 10)
    assert ramp.rps_at(5) == 50 and ramp.rps_at(20) == 100
    burst = BurstDemand(base_rps=10, peak_rps=100, period_s=10, duty=0.5)
    assert burst.rps_at(1) == 100 and burst.rps_at(6) == 10
    diurnal = DiurnalDemand(low_rps=0, high_rps=100, period_s=100)
    assert 0 <= diurnal.rps_at(33) <= 100
    assert diurnal.rps_at(25) == pytest.approx(100)


def test_nginx_oversubscribed_workers_flatten(platform):
    """Beyond one worker per core the credit scheduler shares cores and
    aggregate throughput stops growing (emergent, not calibrated)."""
    rng = platform.rng.fork("oversub")
    at_cores = NginxCloneCluster(platform, 4, ip="10.0.2.41").run_wrk(rng)
    over = NginxCloneCluster(platform, 6, ip="10.0.2.42")
    oversubscribed = over.run_wrk(rng)
    assert oversubscribed.throughput_rps < 1.15 * at_cores.throughput_rps


def test_nginx_latency_reported_and_clones_have_tighter_tail(big_platform):
    rng = big_platform.rng.fork("latency")
    cluster = NginxCloneCluster(big_platform, 4, ip="10.0.2.51")
    clones = cluster.run_wrk(rng)
    procs = NginxProcessCluster(big_platform.clock, big_platform.costs,
                                4).run_wrk(rng)
    cluster.destroy()
    # Closed loop at 400 conns/worker and ~30k rps/worker: ~13 ms mean.
    assert 8 <= clones.latency_p50_ms <= 20
    assert clones.latency_p99_ms > clones.latency_p50_ms
    # Processes pay kernel scheduling jitter in the tail.
    tail_ratio_clone = clones.latency_p99_ms / clones.latency_p50_ms
    tail_ratio_proc = procs.latency_p99_ms / procs.latency_p50_ms
    assert tail_ratio_proc > tail_ratio_clone


# ----------------------------------------------------------------------
# Redis save triggers (paper §7.1: periodic / update-count / explicit)
# ----------------------------------------------------------------------
def test_redis_update_count_trigger(big_platform):
    from repro.apps.redis import RedisSaveScheduler

    domain = big_platform.xl.create(redis_unikernel_config("rt"),
                                    app=RedisApp())
    scheduler = RedisSaveScheduler(big_platform, domain,
                                   save_every_updates=1000)
    assert scheduler.insert(400) is None
    assert scheduler.insert(400) is None
    timings = scheduler.insert(400)  # crosses 1000 updates
    assert timings is not None
    assert timings.keys == 1200
    assert scheduler.insert(900) is None  # counter was reset


def test_redis_periodic_trigger(big_platform):
    from repro.apps.redis import RedisSaveScheduler
    from repro.sim.units import SEC

    domain = big_platform.xl.create(redis_unikernel_config("rp"),
                                    app=RedisApp())
    scheduler = RedisSaveScheduler(big_platform, domain, save_every_s=30.0)
    domain.guest.app.mass_insert(domain.guest.api, 5000)
    big_platform.engine.run_until(big_platform.now + 95 * SEC)
    scheduler.stop()
    assert len(scheduler.saves) == 3  # t=30, 60, 90
    assert all(s.keys == 5000 for s in scheduler.saves)
    big_platform.check_invariants()


def test_redis_periodic_trigger_stops_with_domain(big_platform):
    from repro.apps.redis import RedisSaveScheduler
    from repro.sim.units import SEC

    domain = big_platform.xl.create(redis_unikernel_config("rd"),
                                    app=RedisApp())
    scheduler = RedisSaveScheduler(big_platform, domain, save_every_s=10.0)
    big_platform.engine.run_until(big_platform.now + 15 * SEC)
    big_platform.xl.destroy(domain.domid)
    big_platform.engine.run_until(big_platform.now + 50 * SEC)
    assert len(scheduler.saves) == 1
