"""Command line front end.

Verbs: eval (zeta / word values), verify (check suites), gamma (the
hyperbolic gamma function at a point), ohno (coefficient tables),
cache (persistent store management).  Every verb prints one JSON
report; complex numbers are encoded as [re, im] pairs.  Options read
environment variables with the OMZV_ prefix (OMZV_VERIFY_OMEGA and so
on) and a --config file of flat key=value lines; command line flags
win over both.

Exit codes: 0 success, 1 failed check, 2 parse or usage error,
3 non-admissible argument (bad index, pole, deformation out of range)
or a quadrature that cannot be carried out (QuadError; verify still
reports every check, and each check that read a value that raised
fails with its own error).
"""

import cmath
import json
import math
import time

import click

from . import __version__
from . import cache as cache_mod
from .hypgamma import GammaContext, log_G
from .ohno import ohno_table
from .omega import OmegaParam, Z_omega, zeta_omega
from .quad import EvalResult, QuadConfig, QuadError
from .words import parse_apoly, parse_index

SUITE_NAMES = ("algebra", "duality", "shuffle", "harmonic", "double-shuffle",
               "gamma", "saalschutz", "ohno", "transport", "extended-do",
               "limit")        # verify.SUITES, loaded by `verify` alone


class AdmissibilityError(click.ClickException):
    exit_code = 3


def _tolerance(ctx, param, value):
    """--tol is finite and > 0; click.FloatRange lets NaN and inf in."""
    if value is not None and not (math.isfinite(value) and value > 0):
        raise click.BadParameter("%r is not a finite number > 0" % value)
    return value


def _omega(ctx, param, value):
    """--omega lies in (0, 2), the range OmegaParam accepts."""
    try:
        return OmegaParam(value).omega
    except ValueError as exc:
        raise click.BadParameter(str(exc))


_OUT = click.option("--out", type=click.Path(dir_okay=False), default=None,
                    help="Write the JSON report here instead of stdout.")


def _evaluation_options(tol_help="Quadrature relative tolerance target."):
    """--omega, --tol, --out and --cache, shared by the verbs that
    evaluate; tol_help says what --tol sets for the verb."""
    options = [
        click.option("--omega", type=float, default=1.0, show_default=True,
                     callback=_omega,
                     help="Deformation parameter in (0, 2)."),
        click.option("--tol", type=float, default=None, callback=_tolerance,
                     help=tol_help),
        _OUT,
        click.option("--cache", "cache_path",
                     type=click.Path(dir_okay=False), default=None,
                     help="Persistent value store (JSON lines)."),
    ]

    def decorate(f):
        for option in reversed(options):
            f = option(f)
        return f
    return decorate


def _complex_arg(text):
    try:
        z = complex(text.strip().replace("i", "j").replace(" ", ""))
    except ValueError:
        raise click.UsageError("cannot parse complex number %r" % text)
    if not cmath.isfinite(z):
        raise click.UsageError("complex number %r is not finite" % text)
    return z


def _jsonable(x):
    if isinstance(x, complex):
        return [_jsonable(x.real), _jsonable(x.imag)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, float):
        return x if cmath.isfinite(x) else None   # NaN, inf: not JSON
    if hasattr(x, "item"):
        return _jsonable(x.item())
    return str(x)


def _emit(report, out):
    text = json.dumps(_jsonable(report), indent=2, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as f:
            f.write(text)
        click.echo("wrote %s" % out)
    else:
        click.echo(text, nl=False)


def _base_report(command, **extra):
    rep = {
        "tool": "omzv",
        "version": __version__,
        "command": command,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    rep.update(extra)
    return rep


def _install_cache(path):
    """Install the store at `path`, or none when --cache is absent, so a
    store from an earlier in-process invocation is never reused."""
    cache_mod.install(cache_mod.ValueCache(path) if path else None)
    click.get_current_context().call_on_close(lambda: cache_mod.install(None))


def _quad_config(tol):
    return QuadConfig(rel_tol=tol) if tol is not None else QuadConfig()


def _read_config(path):
    values = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise click.UsageError(
                    "%s:%d: expected key=value" % (path, lineno))
            key, _, val = line.partition("=")
            values[key.strip().replace("-", "_")] = val.strip()
    return values


@click.group()
@click.version_option(version=__version__, prog_name="omzv")
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Flat key=value defaults file; command "
              "line flags take precedence.")
@click.pass_context
def cli(ctx, config):
    """omega-deformed multiple zeta values."""
    if config:
        defaults = _read_config(config)
        ctx.default_map = {name: defaults for name in
                           ("eval", "verify", "gamma", "ohno", "cache")}


@cli.command("eval")
@click.argument("kind", type=click.Choice(["zeta", "word"]))
@click.argument("expr")
@_evaluation_options()
def cmd_eval(kind, expr, omega, tol, out, cache_path):
    """Evaluate zeta_w of an index ("1,3,2") or Z_w of a word ("E G2")."""
    _install_cache(cache_path)
    cfg = _quad_config(tol)
    p = OmegaParam(omega)
    zeta = kind == "zeta"
    try:
        arg = parse_index(expr) if zeta else parse_apoly(expr)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        res = (zeta_omega if zeta else Z_omega)(arg, p, cfg)
    except (ValueError, QuadError) as exc:
        raise AdmissibilityError(str(exc))
    parsed = ",".join(str(e) for e in arg) if zeta else str(arg)
    report = _base_report(
        "eval", kind=kind, expr=expr, parsed=parsed,
        config={"omega": omega, "tol": tol,
                "fingerprint": cfg.fingerprint()},
        value=res.value, err_estimate=res.err_estimate,
        meta=res.meta)
    _emit(report, out)


@cli.command("verify")
@click.argument("suite", type=click.Choice(SUITE_NAMES + ("all",)))
@_evaluation_options("Override the per-check tolerances.")
@click.option("--max-weight", type=click.IntRange(min=0), default=4,
              show_default=True,
              help="Weight cap for the monomial batteries.")
@click.option("--order", type=click.IntRange(min=0), default=2,
              show_default=True,
              help="Table order for the Ohno checks.")
@click.option("--seed", type=int, default=0, show_default=True,
              help="Seed for generic-point selection.")
@click.pass_context
def cmd_verify(ctx, suite, omega, tol, max_weight, order, seed, out,
               cache_path):
    """Run one verification suite (or "all") and report each check."""
    from .verify import run_suite
    _install_cache(cache_path)
    t0 = time.perf_counter()
    records = run_suite(suite, omega=omega, max_weight=max_weight,
                        order=order, seed=seed, tol=tol)
    checks = [{
        "name": r.name,
        "anchor": r.anchor,
        "lhs": r.lhs,
        "rhs": r.rhs,
        "residual": r.residual,
        "tolerance": r.tolerance,
        "pass": r.passed,
        "fingerprint": r.fingerprint,
        "runtime_s": round(r.runtime, 6),
        **({"error": r.error} if r.error else {}),
    } for r in records]
    failed = sum(1 for r in records if not r.passed)
    report = _base_report(
        "verify", suite=suite,
        config={"omega": omega, "tol": tol, "max_weight": max_weight,
                "order": order, "seed": seed},
        checks=checks,
        summary={"total": len(records), "passed": len(records) - failed,
                 "failed": failed},
        runtime_s=round(time.perf_counter() - t0, 6))
    _emit(report, out)
    if any(r.error for r in records):
        ctx.exit(3)
    if failed:
        ctx.exit(1)


@cli.command("gamma")
@click.argument("z")
@_evaluation_options()
def cmd_gamma(z, omega, tol, out, cache_path):
    """Hyperbolic gamma function at a complex point such as "0.2+0.3i"."""
    _install_cache(cache_path)
    zc = _complex_arg(z)
    cfg = _quad_config(tol)
    p = OmegaParam(omega)
    ctx_g = GammaContext(p, cfg=cfg)
    try:
        res = cache_mod.memoized(
            "logG %r" % zc, p.omega, cfg,
            lambda: EvalResult(log_G(zc, ctx_g), 0.0))
    except QuadError as exc:
        raise AdmissibilityError(str(exc))
    lg = res.value
    value = None
    if abs(lg.real) < 700.0:
        value = cmath.exp(lg)
    report = _base_report(
        "gamma", z=zc,
        config={"omega": omega, "tol": tol,
                "fingerprint": cfg.fingerprint()},
        log_G=lg, G=value, cached=bool(res.meta.get("cached")))
    _emit(report, out)


@cli.command("ohno")
@click.argument("index")
@_evaluation_options()
@click.option("--order", type=click.IntRange(min=0), default=2,
              show_default=True,
              help="Largest m+n in the table.")
def cmd_ohno(index, omega, order, tol, out, cache_path):
    """Table of double Ohno sums O_{m,n}(k) for an admissible index."""
    _install_cache(cache_path)
    cfg = _quad_config(tol)
    p = OmegaParam(omega)
    try:
        k = parse_index(index)
    except ValueError as exc:
        raise click.UsageError(str(exc))
    try:
        table = ohno_table(k, order, p, cfg)
    except (ValueError, QuadError) as exc:
        raise AdmissibilityError(str(exc))
    cells = [{"m": m, "n": n, "value": table[m, n].value,
              "err": table[m, n].err_estimate} for m, n in table.cells()]
    report = _base_report(
        "ohno", index=list(k), order=order,
        config={"omega": omega, "tol": tol,
                "fingerprint": cfg.fingerprint()},
        cells=cells)
    _emit(report, out)


@cli.command("cache")
@click.argument("action", type=click.Choice(["stats", "clear"]))
@click.option("--cache", "cache_path", type=click.Path(dir_okay=False),
              required=True, help="Persistent value store (JSON lines).")
@_OUT
def cmd_cache(action, cache_path, out):
    """Inspect or empty the persistent value store."""
    store = cache_mod.ValueCache(cache_path)
    if action == "clear":
        n = len(store)
        store.clear()
        report = _base_report("cache", action="clear", path=cache_path,
                              removed=n)
    else:
        report = _base_report("cache", action="stats", path=cache_path,
                              entries=len(store))
    _emit(report, out)


def main():
    cli(auto_envvar_prefix="OMZV")


if __name__ == "__main__":
    main()
