"""Command-line entry point: operator catalogues, targeted verifications,
model reports, and the orchestrated verification suites.

Exit codes: 0 all checks pass, 1 at least one failure, 2 configuration error,
or a run that decided no check (none ran, or every one was skipped), 3 internal error,
141 (128 + SIGPIPE) the reader of stdout closed it early, as `| head` does.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .expr import Binding, ExprError, Sym, _nodes
from .parser import parse, to_string
from .diffop import pretty
from .families import monomial_family, literature_ops, J_gallery, K_gallery
from .invariance import (
    SamplePlan, InvarianceError, checks, space_verdicts, verify_commutator_table,
)
from .models import (
    ModelParameterError, build_example, verify_susy_conditions, conditions_hold,
    algebraic_spectrum, solvable_sector,
)
from .numerics import Grid, fd_spectrum, normalizability_probe
from .suites import SUITES, seed_basis, partner_basis
from .x2 import verify_x2_identities


class ConfigError(Exception):
    pass


@dataclass
class SuiteConfig:
    suites: list = field(default_factory=lambda: list(SUITES))
    seed: int = SamplePlan.seed
    tol: float = SamplePlan.tol

    def __post_init__(self):
        unknown = [s for s in self.suites if s not in SUITES]
        if unknown:
            raise ConfigError(f"unknown suites: {unknown}")
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ConfigError(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def plan(self) -> SamplePlan:
        return SamplePlan(seed=self.seed, tol=self.tol)


@dataclass
class Report:
    config: SuiteConfig
    checks: list

    @property
    def summary(self) -> dict:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.checks:
            key = c["verdict"] if c["verdict"] in out else "fail"
            out[key] += 1
        out["total"] = len(self.checks)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        checks = sorted(self.checks, key=lambda c: c["id"])
        if not include_timing:
            checks = [{k: v for k, v in c.items() if k != "millis"} for c in checks]
        doc = {
            "meta": {
                "seed": self.config.seed,
                "version": __version__,
                "config": {
                    "suites": self.config.suites,
                    "tol": self.config.tol,
                },
            },
            "checks": checks,
            "summary": self.summary,
        }
        # records hold non-finite residuals as null, so the output is strict JSON
        return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)

    def to_markdown(self) -> str:
        lines = [f"# verification report (seed {self.config.seed})", ""]
        s = self.summary
        lines.append(f"**{s['pass']} pass / {s['fail']} fail / "
                     f"{s['skipped']} skipped** of {s['total']}")
        lines.append("")
        lines.append("| check | anchor | verdict | residual |")
        lines.append("|---|---|---|---|")
        for c in sorted(self.checks, key=lambda c: c["id"]):
            res = "" if c["residual"] is None else f"{c['residual']:.2e}"
            lines.append(f"| `{c['id']}` | {c['anchor']} | {c['verdict']} | {res} |")
        lines.append("")
        return "\n".join(lines)


def run_suite(config: SuiteConfig) -> Report:
    plan = config.plan()
    checks = []
    for name in config.suites:
        checks.extend(SUITES[name](plan))
    return Report(config, checks)


# ---------------------------------------------------------------------------
# argument plumbing

def _parse_bindings(text: str | None) -> dict:
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ConfigError(f"binding {piece!r} is not of the form name=value")
        k, v = piece.split("=", 1)
        k = k.strip()
        if k in out:
            raise ConfigError(f"binding {k!r} given more than once")
        try:
            out[k] = float(Fraction(v.strip()))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ConfigError(f"bad binding value {v!r}") from exc
    return out


# each run setting and its reading of a flag's or a config line's value
_SETTINGS = {"suites": lambda text: [s.strip() for s in text.split(",") if s.strip()],
             "seed": int, "tol": float}


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line {raw.rstrip()!r}")
            k, v = (s.strip() for s in line.split("=", 1))
            if k not in _SETTINGS:
                raise ConfigError(f"unknown config key {k!r}; "
                                  f"expected one of {', '.join(_SETTINGS)}")
            out[k] = v
    return out


def _config(args) -> SuiteConfig:
    """A command's run settings, each from its flag, else its --config line, else
    SuiteConfig's default; a command without --suites runs none."""
    given = {} if hasattr(args, "suites") else {"suites": ""}
    given.update(_read_config_file(args.config) if getattr(args, "config", None) else {})
    given.update((k, getattr(args, k)) for k in _SETTINGS if getattr(args, k, None) is not None)
    settings = {}
    for key in [k for k in _SETTINGS if k in given]:
        try:
            settings[key] = _SETTINGS[key](given[key])
        except ValueError:
            raise ConfigError(f"bad config value {key} = {given[key]!r}") from None
    return SuiteConfig(**settings)


def _fraction(text: str) -> Fraction:
    try:
        value = Fraction(text)
        float(value)  # a value beyond float range would overflow inside a check
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ConfigError(f"bad rational {text!r}") from exc
    return value


def _exit_code(report: Report) -> int:
    """0 when every decided check passed, 1 when one failed; a run that
    decided no check (none ran, or all were skipped) is a ConfigError."""
    s = report.summary
    if s["pass"] + s["fail"] == 0:
        raise ConfigError(f"no check was decided: {s['skipped']} of {s['total']} skipped")
    return 0 if s["fail"] == 0 else 1


def _model(example: int, bindings: dict, plan: SamplePlan, sample):
    """build_example, its verify_susy_conditions and sample(model): every step
    that samples the model.  A binding the build refuses, or one that fits a
    float but overflows there or leaves no usable sample point, is bad input;
    the message names the step that raised."""
    step = "build"
    try:
        model = build_example(example, Binding(params=bindings))
        step = "conditions"
        res = verify_susy_conditions(model, plan)
        step = "sampled spectra/probes"
        return model, res, sample(model)
    except (ArithmeticError, ValueError, InvarianceError, ModelParameterError) as exc:
        raise ConfigError(f"example {example} with bindings {bindings} cannot be evaluated "
                          f"in the model: {type(exc).__name__}: {exc} (in the {step})") from exc


def _write_or_print(text: str, path: str | None):
    """Write text to the file path, or print it when path is None or '-'."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_catalog(args) -> int:
    lam = _fraction(args.exponent) if args.exponent else None
    fam = monomial_family(args.family, lam)
    if args.family == "C" and lam in (-2, -1, 2, 3):
        print(f"warning: family exponent {lam} lies in the documented exclusion range; the "
              "three-dimensional space degenerates to a lower type there", file=sys.stderr)
    style = "tex" if args.format == "tex" else "text"
    entries = {}
    for kind in ("J", "K"):
        for i, op in fam[kind].items():
            entries[f"{kind}{i}"] = pretty(op, style)
    for s in ("minus", "plus"):
        for name, op in literature_ops(args.family, s, lam).items():
            entries[f"catalogued:{s}:{name}"] = pretty(op, style)
    if args.format == "json":
        print(json.dumps(entries, indent=2, sort_keys=True))
    else:
        for name in sorted(entries):
            print(f"{name}: {entries[name]}")
    return 0


@checks
def _invariance_checks(f, names: list, plan: SamplePlan):
    """The invariance of each named member, each space's members in one point search."""
    found = {}
    for g, gallery, space in (("J", J_gallery, seed_basis), ("K", K_gallery, partner_basis)):
        mine = [name for name in names if name[0] == g]
        if mine:
            gallery = gallery(f)
            asks = [(gallery[int(name[1:])], True, plan.tol) for name in mine]
            found.update(zip(mine, space_verdicts(space(f), asks, plan)))
    yield [(f"verify:{name}", f"invariance of {name}", found[name].passed,
            max(found[name].residuals)) for name in names]


def _cmd_verify(args) -> int:
    cfg = _config(args)
    plan = cfg.plan()
    f = parse(args.f)
    if params := sorted({x.name for x in _nodes(f) if isinstance(x, Sym)}):
        raise ConfigError(f"--f has free parameters {params}; verify binds none")
    if args.what == "invariance":
        ops = ([s.strip() for s in args.ops.split(",")] if args.ops is not None
               else [f"J{i}" for i in range(1, 9)])
        # K0 is a first-order building block: no claim says it preserves a space
        members = [f"J{i}" for i in range(1, 10)] + [f"K{i}" for i in range(1, 9)]
        for name in ops:
            if name not in members:
                raise ConfigError(f"unknown operator {name!r}; expected J1..J9 or K1..K8")
        twice = sorted({s for s in ops if ops.count(s) > 1})
        if twice:
            raise ConfigError(f"operators given more than once: {twice}")
        records = _invariance_checks(f, ops, plan)
    elif args.ops is not None:
        raise ConfigError("--ops selects operators of 'verify invariance' only")
    elif args.what == "commutators":
        records = [dict(rec, id=f"verify:{rec['id']}")
                   for rec in verify_commutator_table(f, plan)]
    else:
        raise ConfigError(f"unknown verification target {args.what!r}")
    report = Report(cfg, records)
    _write_or_print(report.to_json(), args.json)
    return _exit_code(report)


def _cmd_model(args) -> int:
    bindings = _parse_bindings(args.bind)
    plan = _config(args).plan()

    def sample(model):  # per side, its spectrum and its sector elements' normalizability
        return {side: (algebraic_spectrum(model, side, plan),
                       [normalizability_probe(b, model.norm_domain, model.binding)
                        for b in solvable_sector(model, side).elements])
                for side in ("minus", "plus")}

    model, res, sampled = _model(args.example, bindings, plan, sample)
    doc = {
        "example": args.example,
        "bindings": bindings,
        "functions": {
            "z(q)": to_string(model.z_of_q),
            "E": to_string(model.E),
            "F": to_string(model.F),
            "W": to_string(model.W),
            "V-": to_string(model.V_minus),
            "V+": to_string(model.V_plus),
        },
        "residuals": {
            "printed-forms": res.printed, "cond2": res.cond2, "cond3": res.cond3,
            "first-integral-match": max(res.f1_match, res.f2_match),
            "intertwining": res.intertwining,
        },
        "spectrum": {},
        "normalizable": {},
    }
    for side, (sp, probes) in sampled.items():
        doc["spectrum"][side] = [
            {"re": ev.real, "im": ev.imag, "residual": r}
            for ev, r in zip(sp.eigenvalues, sp.residuals)
        ]
        doc["normalizable"][side] = probes
    if args.report == "json":
        _write_or_print(json.dumps(doc, indent=2, sort_keys=True), args.out)
    else:
        lines = [f"# model report: example {args.example}", ""]
        lines.append(f"bindings: `{bindings}`")
        lines.append("")
        for k, v in doc["functions"].items():
            lines.append(f"- {k} = `{v}`")
        lines.append("")
        lines.append("| residual | value |")
        lines.append("|---|---|")
        for k, v in doc["residuals"].items():
            lines.append(f"| {k} | {v:.3e} |")
        lines.append("")
        for side in sampled:
            evs = ", ".join(f"{e['re']:.6g}{e['im']:+.2g}i" if e["im"] else f"{e['re']:.6g}"
                            for e in doc["spectrum"][side])
            lines.append(f"- {side} spectrum: {evs or 'none, the sector fit failed'}")
            lines.append(f"- {side} sector normalizability: {doc['normalizable'][side]}")
        _write_or_print("\n".join(lines), args.out)
    fits = all(sp.sector.passed for sp, _ in sampled.values())
    return 0 if conditions_hold(res, plan) and fits else 1


def _cmd_x2(args) -> int:
    cfg = _config(args)
    sides = {"both": ("minus", "plus"), "minus": ("minus",),
             "plus": ("plus",)}[args.side]
    try:
        results = verify_x2_identities(_fraction(args.alpha), cfg.plan(), sides=sides)
    except OverflowError as exc:
        # alpha itself fits a float, but the frame's alpha^2..alpha^4 may not
        raise ConfigError(f"alpha {args.alpha!r} overflows a float in the x2 frame: {exc}") from exc
    report = Report(cfg, results)
    _write_or_print(report.to_json(), args.json)
    return _exit_code(report)


def _cmd_spectrum(args) -> int:
    if (args.example is None) == (args.potential is None):
        raise ConfigError("give exactly one of --example or --potential")
    if args.example and (args.lo, args.hi) != (None, None):
        raise ConfigError("--lo and --hi set the grid of --potential; an example has its own")
    if args.potential and args.seed is not None:
        raise ConfigError("--seed samples the algebraic spectrum of --example; "
                          "--potential has none")
    bindings = _parse_bindings(args.bind)
    if args.example:
        plan = _config(args).plan()
        model, res, sp = _model(args.example, bindings, plan,
                                lambda model: algebraic_spectrum(model, "minus", plan))
        if model.fd_domain is None:
            raise ConfigError("this model family has no designated grid domain")
        lo, hi = model.fd_domain
        ev = fd_spectrum(model.V_minus, Grid(lo, hi, args.grid), args.k, model.binding)
        doc = {"grid": [lo, hi, args.grid],
               "fd": list(map(float, ev)),
               "algebraic": [{"re": e.real, "im": e.imag} for e in sp.eigenvalues]}
    else:
        V = parse(args.potential, "q")
        lo = -12.0 if args.lo is None else args.lo
        hi = 12.0 if args.hi is None else args.hi
        ev = fd_spectrum(V, Grid(lo, hi, args.grid), args.k, Binding(params=bindings))
        doc = {"grid": [lo, hi, args.grid], "fd": list(map(float, ev))}
    print(json.dumps(doc, indent=2))
    return 0 if args.example is None or conditions_hold(res, plan) and sp.sector.passed else 1


def _cmd_suite(args) -> int:
    report = run_suite(_config(args))
    if args.json:
        _write_or_print(report.to_json(), args.json)
    if args.md:
        _write_or_print(report.to_markdown(), args.md)
    if not args.json and not args.md:
        print(report.to_markdown())
    code = _exit_code(report)
    s = report.summary
    print(f"[qsusy] {s['pass']} pass / {s['fail']} fail / {s['skipped']} skipped",
          file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="qsusy",
                                 description="quasi-solvable operator toolkit")
    ap.add_argument("--version", action="version", version=f"qsusy {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("catalog", help="dump an operator family")
    c.add_argument("--family", required=True, choices=["A", "B", "C"])
    c.add_argument("--lambda", dest="exponent", default=None,
                   help="exponent for family C, e.g. 5/2")
    c.add_argument("--format", default="text", choices=["text", "json", "tex"])
    c.set_defaults(func=_cmd_catalog)

    v = sub.add_parser("verify", help="targeted verification")
    v.add_argument("what", choices=["invariance", "commutators"])
    v.add_argument("--f", required=True, help="generating function, e.g. 'exp(z)'")
    v.add_argument("--ops", default=None, help="comma list like J1,J2,K3")
    v.add_argument("--seed", type=int, default=None)
    v.add_argument("--tol", type=float, default=None)
    v.add_argument("--json", default=None, help="write the JSON report here")
    v.set_defaults(func=_cmd_verify)

    m = sub.add_parser("model", help="build and report a closed-form model")
    m.add_argument("--example", type=int, required=True, choices=[1, 2, 3])
    m.add_argument("--bind", required=True, help="alpha=1,nu=1,b0=0.5")
    m.add_argument("--report", default="md", choices=["md", "json"])
    m.add_argument("--out", default=None)
    m.add_argument("--seed", type=int, default=None)
    m.set_defaults(func=_cmd_model)

    x = sub.add_parser("x2", help="exceptional-subspace verifications")
    x.add_argument("action", choices=["verify"])
    x.add_argument("--alpha", required=True)
    x.add_argument("--side", default="both", choices=["both", "minus", "plus"])
    x.add_argument("--seed", type=int, default=None)
    x.add_argument("--json", default=None)
    x.set_defaults(func=_cmd_x2)

    s = sub.add_parser("spectrum", help="finite-difference cross-check")
    s.add_argument("--example", type=int, default=None, choices=[1, 2, 3])
    s.add_argument("--potential", default=None, help="potential in q, e.g. 'q^2/2'")
    s.add_argument("--lo", type=float, default=None, help="grid start for --potential (-12)")
    s.add_argument("--hi", type=float, default=None, help="grid end for --potential (12)")
    s.add_argument("--grid", type=int, default=4000)
    s.add_argument("--k", type=int, default=6)
    s.add_argument("--bind", default=None)
    s.add_argument("--seed", type=int, default=None, help="sample seed for --example")
    s.set_defaults(func=_cmd_spectrum)

    r = sub.add_parser("suite", help="run verification suites")
    r.add_argument("--suites", default=None,
                   help=f"comma list from {sorted(SUITES)}")
    r.add_argument("--seed", type=int, default=None)
    r.add_argument("--tol", type=float, default=None)
    r.add_argument("--config", default=None, help="key = value overrides file")
    r.add_argument("--json", default=None)
    r.add_argument("--md", default=None)
    r.set_defaults(func=_cmd_suite)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader left early (`| head`), which is no error of the input;
        # devnull takes stdout's descriptor so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ConfigError, ExprError, OSError) as exc:
        # OSError: a config file that cannot be read, a report that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a fault of the program, not of its input: no traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
