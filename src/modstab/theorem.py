"""The paper's stability theorems as data, one ``Theorem`` per scaling
direction and inequality: a run takes ``THEOREMS[direction, which]``, its
envelope's direction with which = "B" iff it checks ``inequality_B``."""

from dataclasses import dataclass

# J^n f(x, z) = 2^(-sign n) f(2^(sign n) x, z): the direction's scaling sign
SIGN = {"ascending": 1, "descending": -1}


@dataclass(frozen=True)
class Theorem:
    """The constants a stability theorem fixes, read by every stage.

    - ``y_is_x``: the tuple that seeds the iteration is (x, x, z, 0), with
      rho-tilde's weight psi(x, x) psi(z, 0); else (x, 0, z, 0), psi(x, 0) psi(z, 0).
    - ``term_offset``: the majorant's term psi_i is psi at (u, u), or at
      (u, 0) without ``y_is_x``, for u = 2^(sign (i - term_offset)) x.
    - ``step``: (m, c), level n's majorant adds 2^(m n + c) psi_n to level
      n - 1's; descending, the recursion unrolled at ``modular.KAPPA`` = 2.
    - ``family``: (a, b), calibration's tuple at level i is scaled by
      2^(a + b i); None where its left side is 0 (ascending B).
    """

    direction: str
    which: str
    y_is_x: bool
    term_offset: int
    step: tuple
    family: tuple | None

    @property
    def sign(self):
        return SIGN[self.direction]


THEOREMS = {(t.direction, t.which): t for t in (
    Theorem("ascending", "A", y_is_x=True, term_offset=1, step=(-1, 0), family=(2, 1)),
    Theorem("ascending", "B", y_is_x=True, term_offset=1, step=(-1, 0), family=None),
    Theorem("descending", "A", y_is_x=True, term_offset=0, step=(1, -1), family=(1, -1)),
    Theorem("descending", "B", y_is_x=False, term_offset=1, step=(1, -1), family=(2, -1)),
)}
