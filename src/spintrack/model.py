"""Physical parameters, grids, detector layout, and the initial wavepacket.

The standard configuration is parameterized by a single scale `epsilon`:
an energetic particle (hbar = epsilon, average momentum p0 = 4/(3*epsilon))
starts at the origin as a superposition of two identical truncated-Gaussian
packets with opposite momentum, and two clusters of N/2 point detectors sit
symmetrically around +-D.  The particle reaches the clusters at about
t = D/p0, which for epsilon = 0.1 and D = 0.5 is t = 0.0375.
"""

from dataclasses import dataclass

import numpy as np

from .spinspace import MAX_SPINS, SideAssignment
from .state import StateVector

# Reading of "much smaller than" used by the regime checks.
MUCH_LESS_FACTOR = 10.0
# The longest array of complex values numpy can hold: its size in bytes must fit in an intp.
MAX_ARRAY_LENGTH = np.iinfo(np.intp).max // np.dtype(np.complex128).itemsize


class ConfigurationError(ValueError):
    """A parameter set that cannot produce a well-defined discrete problem."""


def _check_array_length(key, length):
    """Refuse a config key `key` whose value sizes an array longer than MAX_ARRAY_LENGTH."""
    if length > MAX_ARRAY_LENGTH:
        raise ConfigurationError(
            f"{key} must be at most {MAX_ARRAY_LENGTH}, the longest array numpy holds, got {length}"
        )


@dataclass(frozen=True)
class PhysicalParams:
    """Physical constants of one run; the field names are explicit config keys.

    kappa, the coupling factor, multiplies the spin-flip coupling strength; 1
    matches the half-cell discretization of the flip term and is the validated
    default, 2 the alternative continuum jump-condition normalization.
    """

    hbar: float
    mass: float
    alpha: float        # half the energy gap of one detector
    beta: float         # strength of the spin-independent point interaction
    rho: float          # strength of the spin-flip coupling
    p0: float           # average momentum of each packet
    sigma: float        # Gaussian width of the packet
    trunc_a: float      # half-width of the Gaussian's support
    x0: float = 0.0     # packet center
    kappa: int = 1      # coupling factor, 1 or 2

    def __post_init__(self):
        if self.hbar <= 0 or self.mass <= 0:
            raise ConfigurationError("hbar and mass must be positive")
        if self.alpha < 0 or self.beta < 0 or self.rho < 0:
            raise ConfigurationError("alpha, beta, rho must be non-negative")
        if self.sigma <= 0 or self.trunc_a <= 0:
            raise ConfigurationError("sigma and trunc_a must be positive")
        if self.kappa not in (1, 2):
            raise ConfigurationError(f"kappa must be 1 or 2, got {self.kappa}")


@dataclass(frozen=True)
class Geometry:
    """Domain half-length, detector cluster placement, and detector count."""

    half_length: float      # domain is (-L, L)
    cluster_distance: float  # clusters centered at +-D
    spacing: float          # distance between neighboring detectors in a cluster
    num_spins: int          # total detector count, even, split half per side

    def __post_init__(self):
        if self.half_length <= 0:
            raise ConfigurationError("half_length must be positive")
        if not 0 < self.cluster_distance < self.half_length:
            raise ConfigurationError("cluster_distance must lie inside the domain")
        if self.spacing <= 0:
            raise ConfigurationError("spacing must be positive")
        if self.num_spins < 2 or self.num_spins % 2:
            raise ConfigurationError(
                f"num_spins must be even and >= 2, got {self.num_spins}"
            )
        if self.num_spins > MAX_SPINS:
            raise ConfigurationError(f"num_spins capped at {MAX_SPINS}")


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform grid x_i = -L + i*dx, i = 0..Nx-1, endpoints included."""

    xs: np.ndarray
    dx: float

    @property
    def num_points(self):
        return len(self.xs)

    @property
    def half_length(self):
        return -float(self.xs[0])


@dataclass(frozen=True)
class TimeGrid:
    """Final time and step count; the step is always t_final/num_steps."""

    t_final: float
    num_steps: int

    def __post_init__(self):
        if self.t_final <= 0 or self.num_steps < 1:
            raise ConfigurationError("t_final must be positive, num_steps >= 1")
        _check_array_length("num_steps", self.num_steps)

    @property
    def dt(self):
        return self.t_final / self.num_steps


@dataclass(frozen=True, eq=False)
class DetectorLayout:
    """Detector positions snapped onto the grid, ascending, with side labels."""

    positions: np.ndarray       # snapped positions, == xs[grid_indices]
    grid_indices: np.ndarray    # 0-based grid index of each detector
    sides: SideAssignment
    nominal_positions: np.ndarray

    @property
    def num_spins(self):
        return len(self.positions)


def build_grid(half_length, num_points):
    """Uniform grid over [-L, L] with num_points points (so dx = 2L/(Nx-1))."""
    if num_points < 3:
        raise ConfigurationError(f"need at least 3 grid points, got {num_points}")
    _check_array_length("num_points", num_points)
    if half_length <= 0:
        raise ConfigurationError("half_length must be positive")
    # x_i = (2i - (Nx-1)) L/(Nx-1): the integer factor is exactly odd under
    # i -> Nx-1-i, so xs == -xs[::-1] holds bit for bit (linspace misses by
    # an ulp), and a mirror-symmetric run stays exactly symmetric
    xs = (2 * np.arange(num_points) - (num_points - 1)) * (half_length / (num_points - 1))
    xs[[0, -1]] = -half_length, half_length
    dx = 2.0 * half_length / (num_points - 1)
    return Grid(xs=xs, dx=dx)


def cluster_offsets(count, spacing):
    """Offsets of one cluster's detectors from the cluster center.

    Offsets are odd multiples of spacing/2 taken from the serpentine sequence
    +d/2, -d/2, -3d/2, +3d/2, +5d/2, -5d/2, ... truncated at `count`.  Even
    counts give the symmetric pairs +-(2k+1)*spacing/2; for odd counts the
    unpaired detector alternates sides with the pair index (inward of the
    center for counts 3, 7, ..., outward for 1, 5, ...), which is the reading
    validated against the reference probability rows at both odd cases.
    """
    js = np.arange(1, count + 1)
    magnitude = (2 * ((js - 1) // 2) + 1) * spacing / 2.0
    sign = np.where((js // 2) % 2 == 0, 1.0, -1.0)
    return np.sort(sign * magnitude)


def nominal_detector_positions(geom):
    """Detector positions before grid snapping, sorted ascending.

    The left cluster is the mirror image of the right one, so the full layout
    is symmetric about the origin even when each cluster is not symmetric
    about its own center.
    """
    right = geom.cluster_distance + cluster_offsets(geom.num_spins // 2, geom.spacing)
    return np.sort(np.concatenate([-right, right]))


def place_detectors(geom, grid):
    """Snap the nominal detector positions onto the grid, mirror-symmetrically.

    Each detector of the x > 0 half snaps to the nearest grid point (ties
    toward -inf, that is, toward the origin), and the x < 0 half is its
    mirror image, so the layout is symmetric about the origin on every grid.
    Raises if a detector snaps onto the origin, if two detectors land on the
    same point, if a detector leaves the open domain, or if one lands on a
    boundary point.
    """
    nominal = nominal_detector_positions(geom)
    L = grid.half_length
    if nominal[0] <= -L or nominal[-1] >= L:
        raise ConfigurationError(
            f"detector positions {nominal.min():g}..{nominal.max():g} leave the domain (-{L:g}, {L:g})"
        )
    right = np.ceil((nominal[geom.num_spins // 2:] + L) / grid.dx - 0.5).astype(np.int64)
    # a detector at the origin would collide with its own mirror; an exact
    # tie there on a grid without an origin point snaps to x < 0
    if grid.xs[right[0]] <= 0.0:
        raise ConfigurationError("a detector snapped onto the origin and has no side")
    indices = np.concatenate([grid.num_points - 1 - right[::-1], right])
    if len(np.unique(indices)) != len(indices):
        raise ConfigurationError(
            f"grid too coarse: detectors {nominal} collide after snapping (dx={grid.dx:g})"
        )
    if indices[-1] >= grid.num_points - 1:
        raise ConfigurationError("a detector snapped onto a boundary point")
    return DetectorLayout(
        positions=grid.xs[indices],
        grid_indices=indices,
        sides=SideAssignment.from_grid(indices, grid.num_points),
        nominal_positions=nominal,
    )


def initial_state(params, grid, num_channels):
    """Initial decoupled state: all detectors down, particle in a standing packet.

    Channel 0 holds c * f(x) * [exp(-i p0 x / hbar) + exp(+i p0 x / hbar)]
    where f is a Gaussian of width sigma truncated to |x - x0| < trunc_a and
    c normalizes the discrete norm dx * sum |psi|^2 to one.  All other
    channels are zero.
    """
    u = grid.xs - params.x0
    envelope = np.where(
        np.abs(u) < params.trunc_a, np.exp(-(u**2) / (4.0 * params.sigma**2)), 0.0
    )
    packet = envelope * 2.0 * np.cos(params.p0 * u / params.hbar)
    raw_norm2 = grid.dx * np.sum(packet**2)
    if raw_norm2 == 0.0:
        raise ConfigurationError(
            "initial packet vanishes on the grid (truncation width too small?)"
        )
    state = StateVector.zeros(num_channels, grid.num_points, grid.dx)
    state.values[0] = packet / np.sqrt(raw_norm2)
    return state


def validate_regime(params, geom):
    """Check the parameter orderings the model is designed for.

    Returns a list of human-readable warnings, one per violated ordering
    (empty when all hold).  "Much smaller" is read as a factor of 10.
    Violations never fail a run.
    """
    notes = []
    if params.beta * geom.spacing * MUCH_LESS_FACTOR > 1.0:
        notes.append(
            f"beta << 1/d violated: beta={params.beta:g}, 1/d={1.0 / geom.spacing:g}"
        )
    if geom.spacing > params.sigma:
        notes.append(f"d < sigma violated: d={geom.spacing:g}, sigma={params.sigma:g}")
    if params.sigma * MUCH_LESS_FACTOR > geom.cluster_distance:
        notes.append(
            f"sigma << D violated: sigma={params.sigma:g}, D={geom.cluster_distance:g}"
        )
    return notes


def preset_from_epsilon(
    epsilon: float,
    num_spins: int,
    rho: float = None,
    kappa: int = 1,
    num_points: int = 1000,
    num_steps: int = 350,
    t_final: float = 0.065,
):
    """The standard epsilon-scaled configuration; the arguments are preset config keys.

    L = 3/2, D = L/3, d = epsilon/N, hbar = epsilon, m = 1, p0 = 4/(3 epsilon),
    sigma = epsilon/4, beta = alpha = epsilon^4, rho = 1/epsilon^2 when None.
    The truncation half-width is D, where the Gaussian is already below
    double-precision relevance.
    """
    if epsilon <= 0:
        raise ConfigurationError(f"epsilon must be positive, got {epsilon}")
    if num_spins % 2 or num_spins < 2:
        raise ConfigurationError(f"num_spins must be even and >= 2, got {num_spins}")
    half_length = 1.5
    cluster_distance = half_length / 3.0
    params = PhysicalParams(
        hbar=epsilon,
        mass=1.0,
        alpha=epsilon**4,
        beta=epsilon**4,
        rho=(1.0 / epsilon) ** 2 if rho is None else rho,
        p0=4.0 / (3.0 * epsilon),
        sigma=epsilon / 4.0,
        trunc_a=cluster_distance,
        x0=0.0,
        kappa=kappa,
    )
    geom = Geometry(
        half_length=half_length,
        cluster_distance=cluster_distance,
        spacing=epsilon / num_spins,
        num_spins=num_spins,
    )
    grid = build_grid(half_length, num_points)
    tgrid = TimeGrid(t_final=t_final, num_steps=num_steps)
    return params, geom, grid, tgrid
