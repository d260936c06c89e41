"""An xl-style command shell for a simulated Nephele host.

Because the host is a simulation, the shell owns the platform for the
duration of the session; commands mirror the xl verbs plus the Nephele
additions:

    create <file.cfg>          boot a guest from an xl-style config
    clone <name|domid> [n]     clone a guest n times (Nephele)
    destroy <name|domid>       tear a guest down
    save <name|domid> <tag>    save to an in-session image
    restore <tag> [newname]    restore from an image
    list                       xl list
    info <name|domid>          domain info (incl. clone family state)
    console <name|domid>       dump a guest's console output
    pause/unpause <name|domid> domctl pause control
    vcpu-pin <dom> <v> <cpus>  pin a vCPU to physical CPUs
    stats                      full platform snapshot (memory, families)
    faults [sites]             fault-injection counters / site registry
    fleet policies             placement policy registry
    frontdoor [reqs [d]]       request-cloning dispatch smoke (repro.frontdoor)
    storm <name>               a pinned storm or quick experiment (repro.scenarios)
    trace [summary]            per-stage virtual-time table + event counters
    trace spans [kind]         recorded spans (optionally one kind)
    trace export <file.json>   write the machine-readable run report
    trace reset                drop recorded spans (counters are kept)
    mem                        free memory (hypervisor + Dom0)
    clock                      current virtual time
    help / quit

Run interactively (``python -m repro.cli``) or scripted
(``python -m repro.cli script.xlsh`` / piped stdin).
"""

from __future__ import annotations

import shlex
import sys
from typing import Callable, TextIO

from repro.errors import ReproError
from repro.platform import Platform
from repro.sim.units import MIB
from repro.toolstack.config import parse_xl_config
from repro.toolstack.xl import SavedImage


class CliError(ReproError):
    """Command rejected (bad syntax or unknown domain/image)."""


class XlShell:
    """Command interpreter over one Platform."""

    def __init__(self, platform: Platform | None = None,
                 out: TextIO | None = None) -> None:
        # The shell's own platform is traced so `trace` has data; an
        # injected platform keeps whatever the caller configured.
        self.platform = (platform if platform is not None
                         else Platform.create(trace=True))
        self.out = out if out is not None else sys.stdout
        self.images: dict[str, SavedImage] = {}
        self._commands: dict[str, Callable[[list[str]], None]] = {
            "create": self.cmd_create,
            "clone": self.cmd_clone,
            "destroy": self.cmd_destroy,
            "save": self.cmd_save,
            "restore": self.cmd_restore,
            "list": self.cmd_list,
            "info": self.cmd_info,
            "mem": self.cmd_mem,
            "clock": self.cmd_clock,
            "console": self.cmd_console,
            "pause": self.cmd_pause,
            "unpause": self.cmd_unpause,
            "vcpu-pin": self.cmd_vcpu_pin,
            "stats": self.cmd_stats,
            "faults": self.cmd_faults,
            "fleet": self.cmd_fleet,
            "frontdoor": self.cmd_frontdoor,
            "storm": self.cmd_storm,
            "trace": self.cmd_trace,
            "help": self.cmd_help,
        }

    # ------------------------------------------------------------------
    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    def _resolve(self, ref: str) -> int:
        """A domain by domid or by name."""
        if ref.isdigit():
            domid = int(ref)
            if domid in self.platform.hypervisor.domains:
                return domid
            raise CliError(f"no such domid: {domid}")
        for domain in self.platform.hypervisor.domains.values():
            if domain.name == ref:
                return domain.domid
        raise CliError(f"no such domain: {ref!r}")

    def execute(self, line: str) -> bool:
        """Run one command line; returns False on quit/exit."""
        words = shlex.split(line, comments=True)
        if not words:
            return True
        verb, args = words[0], words[1:]
        if verb in ("quit", "exit"):
            return False
        handler = self._commands.get(verb)
        if handler is None:
            raise CliError(f"unknown command: {verb!r} (try 'help')")
        handler(args)
        return True

    def run(self, source: TextIO, interactive: bool = False) -> int:
        """Execute commands from ``source``; returns an exit status."""
        status = 0
        while True:
            if interactive:
                self.out.write("xl> ")
                self.out.flush()
            line = source.readline()
            if not line:
                break
            try:
                if not self.execute(line):
                    break
            except CliError as error:
                self._print(f"error: {error}")
                status = 1
            except Exception as error:  # toolstack/hypervisor errors
                self._print(f"error: {type(error).__name__}: {error}")
                status = 1
        return status

    # ------------------------------------------------------------------
    # commands
    # ------------------------------------------------------------------
    def cmd_create(self, args: list[str]) -> None:
        """create <file.cfg>"""
        if len(args) != 1:
            raise CliError("usage: create <file.cfg>")
        try:
            with open(args[0]) as handle:
                text = handle.read()
        except OSError as error:
            raise CliError(f"cannot read {args[0]!r}: {error}") from error
        config = parse_xl_config(text)
        t0 = self.platform.now
        domain = self.platform.xl.create(config)
        self._print(f"created {domain.name!r} (domid {domain.domid}) "
                    f"in {self.platform.now - t0:.1f} ms")

    def cmd_clone(self, args: list[str]) -> None:
        """clone <name|domid> [count]"""
        if not 1 <= len(args) <= 2:
            raise CliError("usage: clone <name|domid> [count]")
        domid = self._resolve(args[0])
        count = int(args[1]) if len(args) == 2 else 1
        t0 = self.platform.now
        children = self.platform.xl.clone(domid, count=count)
        elapsed = self.platform.now - t0
        names = [self.platform.hypervisor.get_domain(c).name
                 for c in children]
        self._print(f"cloned {count}x in {elapsed:.1f} ms: "
                    + ", ".join(f"{n} ({c})" for n, c in zip(names, children)))

    def cmd_destroy(self, args: list[str]) -> None:
        """destroy <name|domid>"""
        if len(args) != 1:
            raise CliError("usage: destroy <name|domid>")
        domid = self._resolve(args[0])
        self.platform.xl.destroy(domid)
        self._print(f"destroyed domid {domid}")

    def cmd_save(self, args: list[str]) -> None:
        """save <name|domid> <image-tag>"""
        if len(args) != 2:
            raise CliError("usage: save <name|domid> <image-tag>")
        domid = self._resolve(args[0])
        self.images[args[1]] = self.platform.xl.save(domid)
        self._print(f"saved domid {domid} as {args[1]!r}")

    def cmd_restore(self, args: list[str]) -> None:
        """restore <image-tag> [new-name]"""
        if not 1 <= len(args) <= 2:
            raise CliError("usage: restore <image-tag> [new-name]")
        image = self.images.get(args[0])
        if image is None:
            raise CliError(f"no such image: {args[0]!r}")
        name = args[1] if len(args) == 2 else None
        domain = self.platform.xl.restore(image, name=name)
        self._print(f"restored {domain.name!r} (domid {domain.domid})")

    def cmd_list(self, args: list[str]) -> None:
        """list: like ``xl list``, plus the clone counter."""
        self._print(f"{'ID':>4}  {'Name':<24} {'Mem(MB)':>8} {'State':<8} "
                    f"{'Clones':>6}")
        for domid, name, state in self.platform.xl.list_domains():
            domain = self.platform.hypervisor.get_domain(domid)
            self._print(f"{domid:>4}  {name:<24} "
                        f"{domain.memory_bytes // MIB:>8} {state:<8} "
                        f"{domain.clones_created:>6}")

    def cmd_info(self, args: list[str]) -> None:
        """info <name|domid>"""
        if len(args) != 1:
            raise CliError("usage: info <name|domid>")
        domid = self._resolve(args[0])
        info = self.platform.domctl.getdomaininfo(0, domid)
        domain = self.platform.hypervisor.get_domain(domid)
        self._print(f"domid          {info.domid}")
        self._print(f"name           {info.name}")
        self._print(f"state          {info.state}")
        self._print(f"memory         {info.memory_bytes // MIB} MB")
        self._print(f"vcpus          {info.vcpus}")
        self._print(f"cloning        "
                    f"{'enabled' if info.cloning_enabled else 'disabled'} "
                    f"(max {info.max_clones}, created {info.clones_created})")
        self._print(f"parent         {info.parent_domid}")
        self._print(f"children       {list(info.children)}")
        self._print(f"shared pages   {domain.memory.shared_pages()}")
        self._print(f"private pages  {domain.memory.private_pages()}")

    def cmd_mem(self, args: list[str]) -> None:
        """mem: free memory on both budgets."""
        self._print(f"hypervisor free: "
                    f"{self.platform.free_hypervisor_bytes() // MIB} MB")
        self._print(f"dom0 free:       "
                    f"{self.platform.free_dom0_bytes() // MIB} MB")

    def cmd_clock(self, args: list[str]) -> None:
        """clock: current virtual time."""
        self._print(f"virtual time: {self.platform.now:.3f} ms")

    def cmd_pause(self, args: list[str]) -> None:
        """pause <name|domid>"""
        if len(args) != 1:
            raise CliError("usage: pause <name|domid>")
        domid = self._resolve(args[0])
        self.platform.domctl.pause(0, domid)
        self._print(f"paused domid {domid}")

    def cmd_unpause(self, args: list[str]) -> None:
        """unpause <name|domid>"""
        if len(args) != 1:
            raise CliError("usage: unpause <name|domid>")
        domid = self._resolve(args[0])
        self.platform.domctl.unpause(0, domid)
        self._print(f"unpaused domid {domid}")

    def cmd_vcpu_pin(self, args: list[str]) -> None:
        """vcpu-pin <name|domid> <vcpu> <cpu[,cpu..]>"""
        if len(args) != 3:
            raise CliError("usage: vcpu-pin <name|domid> <vcpu> <cpu[,cpu..]>")
        domid = self._resolve(args[0])
        try:
            vcpu = int(args[1])
            cpus = {int(c) for c in args[2].split(",")}
        except ValueError as error:
            raise CliError(f"bad vcpu/cpu list: {error}") from error
        self.platform.domctl.set_vcpu_affinity(0, domid, vcpu, cpus)
        self._print(f"pinned domid {domid} vcpu {vcpu} to {sorted(cpus)}")

    def cmd_console(self, args: list[str]) -> None:
        """console <name|domid>: dump the guest's console ring."""
        if len(args) != 1:
            raise CliError("usage: console <name|domid>")
        domid = self._resolve(args[0])
        domain = self.platform.hypervisor.get_domain(domid)
        consoles = domain.frontends.get("console", [])
        if not consoles:
            raise CliError(f"domain {domid} has no console")
        for line in consoles[0].output:
            self._print(line)

    def cmd_stats(self, args: list[str]) -> None:
        """stats: full platform snapshot."""
        from repro.metrics import snapshot

        self._print(snapshot(self.platform).format())

    def cmd_faults(self, args: list[str]) -> None:
        """faults [sites]: injection counters, or the site registry."""
        if args and args[0] == "sites":
            from repro.faults import SITES

            self._print(f"{'site':<22} {'mode':<6} {'kinds':<24} analogue")
            for name, site in sorted(SITES.items()):
                kinds = ",".join(sorted(k.value for k in site.allowed_kinds))
                self._print(f"{name:<22} {site.mode.value:<6} {kinds:<24} "
                            f"{site.analogue}")
            return
        if args:
            raise CliError("usage: faults [sites]")
        faults = self.platform.faults
        if not faults.enabled:
            self._print("fault injection disabled "
                        "(create the platform with a fault_plan)")
            return
        self._print(faults.format_report())

    def cmd_fleet(self, args: list[str]) -> None:
        """fleet policies"""
        if args != ["policies"]:
            raise CliError("usage: fleet policies")
        from repro.fleet import POLICIES

        for name in sorted(POLICIES):
            self._print(name)

    def cmd_frontdoor(self, args: list[str]) -> None:
        """frontdoor [requests [clone-factor]]"""
        if len(args) > 2:
            raise CliError("usage: frontdoor [requests [clone-factor]]")
        try:
            requests = int(args[0]) if args else 2000
            clone_factor = int(args[1]) if len(args) >= 2 else 2
        except ValueError as error:
            raise CliError(f"bad requests/clone-factor: {error}") from error
        from repro.frontdoor import FleetSession

        # The smoke run owns its own fleet; the shell's single-host
        # platform is untouched.
        with FleetSession(hosts=2) as session:
            session.create_family("front", ip="10.9.0.1")
            session.clone("front", count=2 * clone_factor)
            result = session.dispatch(
                "front", "faas", requests=requests, arrival_rps=300.0,
                clone_factor=clone_factor)
        self._print(f"frontdoor d={result.clone_factor} "
                    f"requests={result.requests} "
                    f"completed={result.completed}")
        self._print(f"  latency ms: p50={result.latency_p50_ms:.3f} "
                    f"p99={result.latency_p99_ms:.3f} "
                    f"max={result.latency_max_ms:.3f}")
        self._print(f"  waste fraction: {result.waste_fraction:.4f}")
        self._print(f"  fingerprint: {result.fingerprint}")

    def cmd_storm(self, args: list[str]) -> None:
        """storm <name>: run one pinned scenario at seed 0xC10E."""
        from repro.scenarios import PIN_SEED, SCENARIOS, format_summary

        if len(args) != 1 or args[0] not in SCENARIOS:
            raise CliError(f"usage: storm <{' | '.join(SCENARIOS)}>")
        # The scenario builds its own platform or fleet; the shell's
        # platform is untouched.
        payload = SCENARIOS[args[0]].runner(PIN_SEED)
        self._print(format_summary(args[0], payload))

    def cmd_trace(self, args: list[str]) -> None:
        """trace [summary | spans [kind] | export <file> | reset]"""
        from repro.metrics import counters
        from repro.obs.report import dump_report, format_counters

        tracer = self.platform.tracer
        if not tracer.enabled:
            self._print("tracing disabled "
                        "(create the platform with trace=True)")
            return
        sub = args[0] if args else "summary"
        if sub == "summary":
            self._print(tracer.format_summary())
            self._print("")
            self._print(format_counters(counters(self.platform)))
        elif sub == "spans":
            kind = args[1] if len(args) >= 2 else None
            spans = tracer.spans(kind)
            if not spans:
                self._print("(no spans recorded)")
                return
            for span in spans:
                indent = "  " * span.depth
                self._print(f"{span.start_ms:>12.4f}  {indent}{span.kind}  "
                            f"{span.duration_ms:.4f} ms")
        elif sub == "export":
            if len(args) != 2:
                raise CliError("usage: trace export <file.json>")
            try:
                report = dump_report(tracer, args[1], counters(self.platform))
            except OSError as error:
                raise CliError(f"cannot write {args[1]!r}: {error}") from error
            self._print(f"wrote {len(report['spans'])} spans to {args[1]!r}")
        elif sub == "reset":
            tracer.reset()
            self._print("trace cleared")
        else:
            raise CliError(
                "usage: trace [summary | spans [kind] | export <file> | reset]")

    def cmd_help(self, args: list[str]) -> None:
        """help: the command reference."""
        self._print(__doc__.strip())


def main(argv: list[str] | None = None) -> int:
    """Entry point: interactive on a TTY, scripted otherwise."""
    argv = sys.argv[1:] if argv is None else argv
    shell = XlShell()
    try:
        if argv:
            with open(argv[0]) as source:
                return shell.run(source)
        interactive = sys.stdin.isatty()
        return shell.run(sys.stdin, interactive=interactive)
    except BrokenPipeError:
        # Output consumer went away (e.g. piped through head).
        return 0


if __name__ == "__main__":
    sys.exit(main())
