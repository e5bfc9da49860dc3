"""Command line front end.

Verbs: eval (zeta / word values), verify (check suites), gamma (the
hyperbolic gamma function at a point), ohno (coefficient tables),
cache (persistent store management).  Every verb prints one JSON
report; complex numbers are encoded as [re, im] pairs.  Each option's
default is read from OMZV_<VERB>_<FLAG>, dashes as underscores
(OMZV_VERIFY_MAX_WEIGHT, OMZV_EVAL_CACHE); a flag wins over its variable.

Exit codes: 0 success, 1 failed check, 2 parse or usage error,
3 non-admissible argument (bad index, pole, deformation out of range)
or a quadrature that cannot be carried out (QuadError; verify still
reports every check, and each check that read a value that raised
fails with its own error).
"""

import cmath
import json
import math
import os
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


def _in_existing_dir(ctx, param, value):
    """--out and --cache name a file in a directory that exists, checked
    before anything is evaluated, not at the first write after it."""
    if value and not os.path.isdir(os.path.dirname(os.path.abspath(value))):
        raise click.BadParameter("the directory of %r does not exist" % value)
    return value


_OUT = click.option("--out", type=click.Path(dir_okay=False), default=None,
                    callback=_in_existing_dir,
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
        click.option("--cache", type=click.Path(dir_okay=False), default=None,
                     callback=_in_existing_dir,
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


def _evaluate(cache, omega, tol, parse, compute):
    """The steps of a verb that evaluates one argument: install the store
    (`_install_cache`), parse the argument with parse() (a ValueError is
    a usage error, exit 2), and compute(arg, p, cfg); a ValueError or
    QuadError there is exit 3.  Returns the argument, the result and the
    report's config block."""
    _install_cache(cache)
    try:
        arg = parse()
    except ValueError as exc:
        raise click.UsageError(str(exc))
    cfg = QuadConfig(rel_tol=tol) if tol is not None else QuadConfig()
    try:
        res = compute(arg, OmegaParam(omega), cfg)
    except (ValueError, QuadError) as exc:
        raise AdmissibilityError(str(exc))
    return arg, res, {"omega": omega, "tol": tol,
                      "fingerprint": cfg.fingerprint()}


@click.group()
@click.version_option(version=__version__, prog_name="omzv")
def cli():
    """omega-deformed multiple zeta values."""


@cli.command("eval")
@click.argument("kind", type=click.Choice(["zeta", "word"]))
@click.argument("expr")
@_evaluation_options()
def cmd_eval(kind, expr, omega, tol, out, cache):
    """Evaluate zeta_w of an index ("1,3,2") or Z_w of a word ("E G2")."""
    zeta = kind == "zeta"
    arg, res, config = _evaluate(
        cache, omega, tol,
        lambda: (parse_index if zeta else parse_apoly)(expr),
        zeta_omega if zeta else Z_omega)
    parsed = ",".join(str(e) for e in arg) if zeta else str(arg)
    report = _base_report(
        "eval", kind=kind, expr=expr, parsed=parsed, config=config,
        value=res.value, err_estimate=res.err_estimate, meta=res.meta)
    _emit(report, out)


@cli.command("verify")
@click.argument("suite", type=click.Choice(SUITE_NAMES + ("all",)))
@_evaluation_options("Replace every check's tolerance, except the exact "
                     "counts of `algebra` and the `limit` checks.")
@click.option("--max-weight", type=click.IntRange(min=1), default=4,
              show_default=True,
              help="Weight cap for the monomial batteries.")
@click.option("--order", type=click.IntRange(min=0), default=2,
              show_default=True,
              help="Table order for the Ohno checks.")
@click.pass_context
def cmd_verify(ctx, suite, omega, tol, max_weight, order, out, cache):
    """Run one verification suite (or "all") and report each check."""
    from .verify import run_suite
    _install_cache(cache)
    t0 = time.perf_counter()
    checks = run_suite(suite, omega=omega, max_weight=max_weight,
                       order=order, tol=tol)
    failed = sum(1 for c in checks if not c["pass"])
    report = _base_report(
        "verify", suite=suite,
        config={"omega": omega, "tol": tol, "max_weight": max_weight,
                "order": order},
        checks=checks,
        summary={"total": len(checks), "passed": len(checks) - failed,
                 "failed": failed},
        runtime_s=round(time.perf_counter() - t0, 6))
    _emit(report, out)
    if any("error" in c for c in checks):
        ctx.exit(3)
    if failed:
        ctx.exit(1)


@cli.command("gamma")
@click.argument("z")
@_evaluation_options()
def cmd_gamma(z, omega, tol, out, cache):
    """Hyperbolic gamma function at a complex point such as "0.2+0.3i"."""
    zc, res, config = _evaluate(
        cache, omega, tol, lambda: _complex_arg(z),
        lambda zc, p, cfg: cache_mod.memoized(
            "logG %r" % zc, p.omega, cfg,
            lambda: EvalResult(log_G(zc, GammaContext(p, cfg=cfg)), 0.0)))
    lg = res.value
    value = None
    if abs(lg.real) < 700.0:
        value = cmath.exp(lg)
    report = _base_report("gamma", z=zc, config=config, log_G=lg, G=value,
                          cached=bool(res.meta.get("cached")))
    _emit(report, out)


@cli.command("ohno")
@click.argument("index")
@_evaluation_options()
@click.option("--order", type=click.IntRange(min=0), default=2,
              show_default=True,
              help="Largest m+n in the table.")
def cmd_ohno(index, omega, order, tol, out, cache):
    """Table of double Ohno sums O_{m,n}(k) for an admissible index."""
    k, table, config = _evaluate(
        cache, omega, tol, lambda: parse_index(index),
        lambda k, p, cfg: ohno_table(k, order, p, cfg))
    cells = [{"m": m, "n": n, "value": table[m, n].value,
              "err": table[m, n].err_estimate} for m, n in table.cells()]
    report = _base_report("ohno", index=list(k), order=order, config=config,
                          cells=cells)
    _emit(report, out)


@cli.command("cache")
@click.argument("action", type=click.Choice(["stats", "clear"]))
@click.option("--cache", type=click.Path(dir_okay=False), required=True,
              help="Persistent value store (JSON lines).")
@_OUT
def cmd_cache(action, cache, out):
    """Inspect or empty the persistent value store."""
    store = cache_mod.ValueCache(cache)
    if action == "clear":
        n = len(store)
        store.clear()
        report = _base_report("cache", action="clear", path=cache,
                              removed=n)
    else:
        report = _base_report("cache", action="stats", path=cache,
                              entries=len(store), dropped=store.dropped)
    _emit(report, out)


def main():
    cli(auto_envvar_prefix="OMZV")


if __name__ == "__main__":
    main()
