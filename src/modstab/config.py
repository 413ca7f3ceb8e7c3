"""The config schema, one row per field, and the parse pass that validates
a config against it before any evaluation.

A row is (path, type, range, default, runs, doc).  The path is dotted from
the top, ``fixtures[]`` standing for each fixture.  A type is int, real, real
or calibrate, complex, complex list, flag, name, name list, text (any value,
echoed), section (a mapping of the rows below it) or section list.  A range
is (lo, hi), inclusive, for an int or real (None: unbounded), "positive",
the disc 0 < |s| < 1 for ``s``, or the names a name takes.  A field whose
default is None also takes null; REQUIRED marks a key that must be given.
``runs`` is the run kind whose configs take the field; ``doc`` is its line
in the README's config reference.  ``CHECKS`` are the keys of
``scenarios._CHECKS``, in its order.
"""

import json
import math
import numbers
import sys

from .algebra import PRESETS
from .bimaps import DIRECTIONS, KERNEL_FORMS, PERTURBATION_NAMES, WEIGHT_KINDS
from .errors import ConfigError
from .modular import MODULAR_KINDS, PHI_PRESETS
from .stabilize import MAX_N_MAX

# the largest probe or sample count; at it a (count, 64) complex sample is ~100 MB
MAX_SAMPLE_COUNT = 100_000
REQUIRED = object()
RUN_KINDS = ("stability", "axioms")
CHECKS = ("inequality_A", "inequality_B", "stability_bound", "biadditivity",
          "first_slot_linearity", "biderivation", "superstability", "telescoping",
          "bounded_orbit", "uniqueness")
PHIS = tuple(PHI_PRESETS)
S, A, ANY = "stability", "axioms", "any"

SCHEMA = (
    ("name", "text", None, "unnamed", ANY, "the run's name, echoed in its records"),
    ("kind", "name", RUN_KINDS, "stability", ANY, "the run kind"),
    ("algebra", "section", None, {}, S, "a preset, or dim and structure"),
    ("algebra.preset", "name", PRESETS, None, S, "a builtin algebra"),
    ("algebra.dim", "int", (1, 32), None, S, "zero_mul's or structure's; dim⁴ arrays ≤ 16 MB"),
    ("algebra.structure", "complex list", None, None, S, "dim³ constants c[i, j, k], row-major"),
    ("modular", "section", None, {}, S, "the modular ρ of the value space"),
    ("modular.kind", "name", MODULAR_KINDS, REQUIRED, S, "the modular's family"),
    ("modular.p", "real", None, 2.0, S, "the power modular's exponent, at least 1"),
    ("modular.phi", "name", PHIS, "square", S, "the Orlicz function"),
    ("modular.convex", "flag", None, True, S, "false only for a non-convex Orlicz modular"),
    ("modular.kappa", "real", None, 2.0, S, "the claimed Δ2 constant κ, in (0, 2]"),
    ("map", "section", None, {}, S, "the map d: a kernel, a perturbation or both"),
    ("map.kernel", "section", None, None, S, "the exactly bilinear part"),
    ("map.kernel.form", "name", KERNEL_FORMS, None, S, "a form over the product, or tensor"),
    ("map.kernel.c", "complex", None, 1.0, S, "the form's coefficient"),
    ("map.kernel.value_dim", "int", (0, None), None, S, "the tensor's; default algebra.dim"),
    ("map.kernel.tensor", "complex list", None, None, S, "dim·dim·value_dim entries, row-major"),
    ("map.perturbation", "section", None, None, S, "a closed-form perturbation"),
    ("map.perturbation.name", "name", PERTURBATION_NAMES, REQUIRED, S, "the perturbation"),
    ("map.perturbation.epsilon", "real", None, REQUIRED, S, "its amplitude"),
    ("map.perturbation.p", "real", None, 2.0, S, "power_env's: < 1 ascending, > 1 descending"),
    ("map.perturbation.boundary_safe", "flag", None, False, S, "damp it to 0 on the axes"),
    ("map.zero_boundary", "flag", None, True, S, "the map vanishes on the axes"),
    ("psi", "section", None, None, S, "the envelope ψ(x, y) = √θ (‖x‖^p + ‖y‖^p)"),
    ("psi.form", "name", ("power",), "power", S, "the envelope's form"),
    ("psi.theta", "real or calibrate", None, 1.0, S, "θ, or \"calibrate\" to fit it"),
    ("psi.p", "real", None, 0.5, S, "the envelope's exponent"),
    ("psi.L", "real", None, None, S, "in (0, 1); default the sharp 2^(p−1) or 2^(1−p)"),
    ("psi.direction", "name", DIRECTIONS, "ascending", S, "the scaling direction"),
    ("s", "complex", "0 < |s| < 1", 0.5, S, "the s of the s-functional inequalities"),
    ("rho_tilde_weight", "name", WEIGHT_KINDS, "psi_xx_z0", S, "ρ̃'s weight, after ψ's arguments"),
    ("probes", "section", None, {}, S, "the seeded probe set"),
    ("probes.count", "int", (1, MAX_SAMPLE_COUNT), 512, S, "the probe count; --probes sets it"),
    ("probes.radius", "real", (0.0, None), 1.0, S, "the probes' coordinate radius"),
    ("probes.seed", "int", (0, None), 0, S, "the probes' seed; --seed-override sets it"),
    ("iteration", "section", None, None, S, "the scaling iteration"),
    ("iteration.direction", "name", DIRECTIONS, None, S, "psi.direction, its default"),
    ("iteration.n_max", "int", (1, MAX_N_MAX), 40, S, "the last level; uniqueness reads + 5"),
    ("iteration.tol", "real", "positive", 1e-10, S, "stop at the first δ_n ≤ tol"),
    ("iteration.magnitude_cap", "real", "positive", 1e15, S, "abort past this scaled size"),
    ("checks", "name list", CHECKS, REQUIRED, S, "the checks, run in this order"),
    ("biderivation_assert_slot2", "flag", None, False, S, "assert the slot-two Leibniz rule"),
    ("samples", "section", None, {}, A, "the seeded axiom samples"),
    ("samples.count", "int", (1, MAX_SAMPLE_COUNT), 10_000, A, "the count; --probes sets it"),
    ("samples.radius", "real", (0.0, None), 1.0, A, "the samples' coordinate radius"),
    ("samples.seed", "int", (0, None), 0, A, "the samples' seed; --seed-override sets it"),
    ("samples.dim", "int", (1, 64), 4, A, "the samples' dimension"),
    ("fixtures", "section list", None, [], A, "the modulars to check"),
    ("fixtures[].label", "text", None, None, A, "the fixture's name; default fixture-<index>"),
    ("fixtures[].modular", "section", None, REQUIRED, A, "the modular, as under modular"),
    ("fixtures[].modular.kind", "name", MODULAR_KINDS, REQUIRED, A, "as modular.kind"),
    ("fixtures[].modular.p", "real", None, 2.0, A, "as modular.p"),
    ("fixtures[].modular.phi", "name", PHIS, "square", A, "as modular.phi"),
    ("fixtures[].modular.convex", "flag", None, True, A, "as modular.convex"),
    ("fixtures[].modular.kappa", "real", None, 2.0, A, "as modular.kappa"),
    ("fixtures[].expect_violation", "text", None, None, A, "the axiom_* the checker must catch"),
    ("fixtures[].check_delta2", "flag", None, False, A, "measure κ̂ against kappa"),
)
_SECTIONS = {}  # (section path, run kind) -> {key: row} of the fields it takes
for _row in SCHEMA:
    _parent, _, _key = _row[0].rpartition(".")
    for _kind in RUN_KINDS:
        if _row[4] in (_kind, ANY):
            _SECTIONS.setdefault((_parent, _kind), {})[_key] = _row


def _shown(value):
    """repr(value) for a diagnostic, or a note in its place when it holds an
    int of more digits than Python converts to text."""
    try:
        return repr(value)
    except ValueError:
        return f"a value with over {sys.get_int_max_str_digits()} digits"


def _writable_int(value, label, hi):
    """The int ``value``, or a ConfigError that names ``label`` when it has
    more digits than Python converts to text, so a report cannot write it."""
    try:
        str(value)
    except ValueError:
        limit = "what a report can write" if hi is None else f"the limit of {hi}"
        raise ConfigError(
            f"{label} has over {sys.get_int_max_str_digits()} digits, past {limit}"
        ) from None
    return value


def read(value, label, type_, bounds=None):
    """``value`` as a field of type ``type_`` within ``bounds``, or a
    ConfigError that names ``label``.  A number is never a bool or a
    string; an int may be a float that is a whole number, such as 64.0; a
    real is finite; a complex is a real or an [re, im] pair of reals."""
    if type_ == "text":
        try:
            json.dumps(value)  # echoed in the report
        except (TypeError, ValueError):
            raise ConfigError(f"{label} cannot be written to a report") from None
        return value
    if type_ == "real or calibrate" and value == "calibrate":
        return value
    if type_ == "flag":
        if not isinstance(value, bool):
            raise ConfigError(f"{label} must be true or false, got {_shown(value)}")
        return value
    if type_ == "name":
        if not isinstance(value, str) or value not in bounds:
            raise ConfigError(f"{label} must be one of {bounds}, got {_shown(value)}")
        return value
    if type_ in ("complex list", "name list"):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{label} must be a list, got {_shown(value)}")
        if type_ == "name list" and not value:
            raise ConfigError(f"{label} must name at least one of {bounds}")
        return [read(v, f"{label} entry", type_[:-5], bounds) for v in value]
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    lo, hi = bounds if isinstance(bounds, tuple) else (None, None)
    if type_ == "complex":
        if isinstance(value, (list, tuple)) and len(value) == 2:
            value = complex(read(value[0], label, "real"), read(value[1], label, "real"))
        elif number:
            value = complex(read(value, label, "real"))
        else:
            raise ConfigError(f"{label} must be a number or an [re, im] pair")
        if bounds and not 0 < abs(value) < 1:  # s's range, the disc 0 < |s| < 1
            raise ConfigError(f"{label} must be nonzero with |{label}| < 1, got {value}")
        return value
    if type_ == "int":
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        if not number or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{label} must be an integer, got {_shown(value)}")
        value = _writable_int(int(value), label, hi)
    else:  # a real
        try:
            value = float(value) if number else value
        except OverflowError:  # an int past float range, too long to format
            raise ConfigError(f"{label} must be a finite number") from None
        if not number or not math.isfinite(value):
            raise ConfigError(f"{label} must be a finite number, got {_shown(value)}")
    if bounds == "positive" and not value > 0:
        raise ConfigError(f"{label} must be positive, got {value}")
    if lo is not None and value < lo:
        raise ConfigError(f"{label} must be at least {lo}, got {value}")
    if hi is not None and value > hi:
        raise ConfigError(f"{label} {value} exceeds the limit of {hi}")
    return value


def _section(raw, path, label, kind, overrides):
    """The mapping ``raw`` of section ``path`` (``label`` in diagnostics),
    validated, with every default filled in."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{label or 'config'} must be a mapping, got {_shown(raw)}")
    rows = _SECTIONS[path, kind]
    dot = f"{label}." if label else ""
    for key in raw:
        if key not in rows:
            import difflib

            try:
                name = str(key)
            except ValueError:  # an int of more digits than Python converts to text
                raise ConfigError(
                    f"{label or 'config'} has an unknown key, {_shown(key)}"
                ) from None
            [near] = difflib.get_close_matches(name, list(rows), n=1, cutoff=0.0)
            raise ConfigError(f"unknown config key {dot + name!r}; did you mean {dot + near!r}?")
    out = {}
    for key, (field, type_, bounds, default, _, _) in rows.items():
        value = overrides.get(field)
        if value is None:
            value = raw.get(key, default)
        elif isinstance(raw.get(key), numbers.Integral):  # unread, but the report hashes it
            _writable_int(raw[key], dot + key, bounds[1])
        if value is REQUIRED:
            raise ConfigError(f"{dot + key} is required")
        if value is None and default is None:
            out[key] = None
        elif type_ == "section":
            out[key] = _section(value, field, dot + key, kind, overrides)
        elif type_ == "section list":
            if not isinstance(value, (list, tuple)):
                raise ConfigError(f"{dot + key} must be a list, got {_shown(value)}")
            out[key] = [_section(v, field + "[]", f"{dot + key}[{i}]", kind, overrides)
                        for i, v in enumerate(value)]
        else:
            out[key] = read(value, dot + key, type_, bounds)
    return out


def parse(cfg, seed=None, count=None):
    """The config ``cfg`` as nested mappings of validated values, with every
    default filled in; ``seed`` and ``count``, when given, replace the
    probes' (an axioms run: the samples') seed and count.  An unknown key,
    a value of the wrong type or out of range, or a missing required key is
    a ConfigError that names it."""
    kind = read(cfg.get("kind", "stability"), "kind", "name", RUN_KINDS)
    samples = "samples" if kind == "axioms" else "probes"
    return _section(cfg, "", "", kind, {f"{samples}.seed": seed, f"{samples}.count": count})


def parse_modular(raw):
    """A ``modular`` section, validated as a stability config's."""
    return _section(raw, "modular", "modular", S, {})
