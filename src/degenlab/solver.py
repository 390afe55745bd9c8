"""P1 finite elements and theta-scheme time stepping for the weighted heat flow.

Forward problems are d_t(phi) - div(w grad phi) = f with homogeneous Dirichlet
data; backward problems are solved exclusively through the substitution
u(t) = phi(T - t), never by integrating the ill-posed direction.  With a
constant step the implicit matrix M + theta dt A is the same at every step, so
it is factored once by sparse LU and each step is one pair of triangular
solves.  The factor belongs to whoever holds the step operator: :func:`solve`
builds its own and frees it on return, unless its caller passes one to share
between solves and frees it by dropping it; the mesh keeps no factor of a
step.  The interior step matrices are gathered from the full mass and
stiffness data through the mesh's one cached map of interior entries, so a
step operator slices no matrix and makes no sparse sum.  Every factor is :func:`_factor_spd`'s SuperLU call (minimum-degree
ordering, diagonal pivots, unrelaxed one-column supernodes, which take a
quarter to a third less time per factor than SuperLU's default blocking on
these 2D P1 matrices, with the same fill).  Data that share a problem
(weight, horizon, direction, source) are solved as one block: each step is
one multi-column product and one multi-column triangular solve, which costs
less per column than a solve per datum.  The time loop is one generator,
:func:`_theta_steps`, which yields each time node's state: :func:`solve`
stores it as a trajectory, and a caller that reads per-time values only
(the observability study) reduces it as it comes and stores none.  The
boundary flux is recovered from the weak-form residual on the boundary rows
alone.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .domain import Mesh, _read_only, time_weights
from .weights import AbsPowerWeight, as_weight

# the P1 mass pair form of a unit-area cell
_MASS_PAIRS = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0]) / 12.0


class SolverError(RuntimeError):
    """Raised when a time step produces non-finite values.

    ``columns`` lists the block columns that went non-finite at time step
    ``step``.
    """

    def __init__(self, message: str, columns=(), step: int | None = None):
        super().__init__(message)
        self.columns = list(columns)
        self.step = step


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Consistent P1 mass matrix (SPD; row sums partition the area)."""
    return mesh.assemble(mesh.areas[:, None] * _MASS_PAIRS)


def cell_weight_integrals(mesh: Mesh, weight) -> np.ndarray:
    """Per-cell quadrature of the spatial weight (1 for unweighted).

    Each cell's points are summed in order (the cell sums of
    :meth:`Mesh.pair_forms`) on the rule refined within the weight's
    ``quadrature_radius``.  Cached on the mesh per weight
    (:func:`~degenlab.weights.as_weight`) and read-only.
    """
    w = as_weight(weight)

    def checked(points):
        wq = w(points)
        if np.any(wq < 0.0) or not np.all(np.isfinite(wq)):
            raise ValueError("weight must be nonnegative and finite at every "
                             "quadrature point")
        return wq

    def build():
        sums = np.zeros((1, mesh.num_cells))
        mesh.pair_forms([(None if w is None else checked, 2)],
                        0.0 if w is None else w.quadrature_radius,
                        cell_sums=sums)
        return sums[0]
    return mesh.cached(("cell_weights", w), build)


def assemble_stiffness(mesh: Mesh, weight) -> sp.csr_matrix:
    """Weighted stiffness A_ij = sum_cells (grad phi_i . grad phi_j) int_c w,
    the pair form scaled in place (one form in memory)."""
    form = mesh.gradient_pairs()
    form *= cell_weight_integrals(mesh, weight)[:, None]
    return mesh.assemble(form)


def load_vectors(mesh: Mesh, fn, times) -> np.ndarray:
    """Consistent loads (f(t), phi_i) for a callable f(points, t), one column
    per time in ``times``: the nodal sums of f(., t) on the midpoint rule,
    one rule per time in one :meth:`Mesh.pair_forms` pass."""
    loads = np.zeros((len(times), mesh.num_vertices))
    mesh.pair_forms([(lambda x, t=t: fn(x, t), 2) for t in times],
                    nodal_sums=loads)
    return loads.T


@dataclass
class ParabolicProblem:
    """Forward or backward weighted heat problem with an optional source.

    ``weight`` is None (unweighted), a float alpha in (0, 2) (the exact
    weight |x|^alpha) or a weight object, where an exact weight |x|^p needs
    p in (0, 2); it is stored as :func:`~degenlab.weights.as_weight` gives
    it.  ``data`` is the nodal initial datum (forward) or terminal datum
    (backward); ``source`` is f(points, t).
    """

    weight: object
    T: float
    data: np.ndarray
    direction: str = "forward"
    source: object = None

    def __post_init__(self):
        self.weight = as_weight(self.weight)
        w = self.weight
        if isinstance(w, AbsPowerWeight) and not 0.0 < w.p < 2.0:
            raise ValueError(f"the diffusion weight |x|^p needs p in (0, 2), "
                             f"got p = {w.p}")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")
        if self.T <= 0:
            raise ValueError("horizon T must be positive")


@dataclass
class DiscreteSolution:
    """Solved trajectory with cached matrices for diagnostics."""

    mesh: Mesh
    problem: ParabolicProblem
    times: np.ndarray            # increasing grid 0..T
    fields: np.ndarray           # (M+1, nv) in physical time
    theta: float
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix

    @functools.cached_property
    def l2_norms(self) -> np.ndarray:
        """||u(t)|| in the mass-matrix norm, per time node."""
        return np.sqrt(np.maximum(0.0, _quadratic_sums(self.mass,
                                                        self.fields)))

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def forward_fields(self) -> np.ndarray:
        """Trajectory of the well-posed forward problem actually integrated."""
        if self.problem.direction == "backward":
            return self.fields[::-1]
        return self.fields


def _quadratic_sums(A: sp.spmatrix, rows: np.ndarray) -> np.ndarray:
    """u^T A u for each row u of the (k, n) ``rows``, summed along contiguous
    rows by einsum: no BLAS thread count and no k moves a value."""
    u = np.ascontiguousarray(rows)
    return np.einsum("kv,kv->k", u, np.ascontiguousarray((A @ u.T).T))


def _factor_spd(mat: sp.spmatrix) -> spla.SuperLU:
    """Sparse LU of an SPD matrix with a symmetric fill-reducing ordering.

    An SPD matrix needs no pivoting, so the factor keeps the diagonal pivots
    of the minimum-degree ordering of A^T + A, which fills less than the
    default column ordering.  Supernodes are not relaxed and panels are one
    column wide (``relax=1, panel_size=1``): the ordering and the fill stay
    the same, and on 2D P1 matrices of this size the default blocking costs
    more than it saves.  At the approximation study's k = 8 step matrix
    (n = 8,959, nnz(L+U) = 546,850) the factor takes 26 ms against 36 ms
    with the defaults (median of 9, one BLAS thread, 2-core x86-64); the
    solves cost the same.
    """
    return spla.splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     diag_pivot_thresh=0.0, relax=1, panel_size=1,
                     options={"SymmetricMode": True})


@dataclass(frozen=True, eq=False)
class StepOperator:
    """The theta-scheme step on the interior unknowns, factored once.

    One step solves (M + theta dt A) u_{n+1} = explicit @ u_n + dt f_theta
    with explicit = M - (1 - theta) dt A.  ``mass`` and ``stiffness`` are the
    full-vertex matrices the step was built from; ``mesh``, ``weight``,
    ``dt`` and ``theta`` are the values it was built for.
    """

    mesh: Mesh
    weight: object
    dt: float
    theta: float
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    explicit: sp.csr_matrix
    lu: spla.SuperLU


def step_operator(mesh: Mesh, weight, dt: float, theta: float) -> StepOperator:
    """A new step operator for (weight, dt, theta) on ``mesh``.

    The operator is not cached: its factor lives as long as the caller
    holds it, and it serves every solve the caller passes it to.  Its arrays are read-only; its mass matrix is the mesh's cached one,
    shared by every step operator of the mesh, and its stiffness reads the
    mesh's cached cell weight integrals.  The interior sums are taken on
    data gathered by :func:`_interior_entries`, bitwise the sliced matrices'
    sparse sums; M + theta dt A is symmetric, so its CSR arrays are its CSC
    arrays and the factor reads them with no copy.
    """
    weight = as_weight(weight)
    mass = mesh.cached("mass", lambda: assemble_mass(mesh))
    stiff = assemble_stiffness(mesh, weight)
    indptr, indices, entry = mesh.cached(
        "p1_interior", lambda: _interior_entries(mesh, mass))
    Mi, Ai = mass.data[entry], stiff.data[entry]
    shape = (len(indptr) - 1,) * 2
    explicit = sp.csr_matrix((Mi - (1.0 - theta) * dt * Ai, indices, indptr),
                             shape=shape)
    K = sp.csc_matrix((Mi + theta * dt * Ai, indices, indptr), shape=shape)
    return _read_only(StepOperator(
        mesh=mesh, weight=weight, dt=float(dt), theta=float(theta),
        mass=mass, stiffness=stiff, explicit=explicit, lu=_factor_spd(K)))


def _interior_entries(mesh: Mesh, mat: sp.csr_matrix):
    """``(indptr, indices, entry)``: ``mat[I][:, I]`` on the interior
    vertices I as CSR, and the position in ``mat.data`` of each of its
    entries, for every matrix that shares ``mat``'s pattern (every matrix
    :meth:`Mesh.assemble` makes).  Taken by slicing the pattern with each
    entry's position + 1 as its value, so no entry is a zero."""
    inter = mesh.interior
    ids = sp.csr_matrix((np.arange(1.0, mat.nnz + 1), mat.indices,
                         mat.indptr), shape=mat.shape)[inter][:, inter]
    return ids.indptr, ids.indices, ids.data.astype(np.intp) - 1


def _theta_steps(problem: ParabolicProblem, block: np.ndarray, M: int,
                 op: StepOperator):
    """The time loop of :func:`solve`: yield ``(row, state)`` at each of the
    M + 1 time nodes in integration order, from the datum's node on.

    ``block`` holds k nodal data as (k, n_vertices), solved under
    ``problem``'s horizon, direction and source with the step ``op``;
    ``row`` is the node's row in physical time and ``state`` its new
    (interior x k) values.  A column that goes non-finite raises
    SolverError naming the column(s) and the step.  A caller that frees
    ``op`` frees its factor once the generator is exhausted.
    """
    mesh, dt, theta = op.mesh, op.dt, op.theta
    inter = mesh.interior
    backward = problem.direction == "backward"
    # backward problems are integrated in the reversed time variable, and
    # step n is yielded with its physical-time row
    rows = np.arange(M, -1, -1) if backward else np.arange(M + 1)
    loads = None
    if problem.source is not None:
        times = np.linspace(0.0, problem.T, M + 1)
        phys_t = problem.T - times if backward else times
        loads = load_vectors(mesh, problem.source, phys_t)[inter]
    ui = block[:, inter].T                 # (interior, k), Fortran-ordered
    yield rows[0], ui
    for n in range(M):
        b = op.explicit @ ui
        if loads is not None:
            b += (dt * (theta * loads[:, n + 1]
                        + (1.0 - theta) * loads[:, n]))[:, None]
        ui = op.lu.solve(b)
        del b                              # not held through the yield
        finite = np.isfinite(ui).all(axis=0)
        if not finite.all():
            bad = np.flatnonzero(~finite).tolist()
            raise SolverError(f"non-finite values in column(s) {bad} at time "
                              f"step {n + 1} of {M}", bad, n + 1)
        yield rows[n + 1], ui


def solve(problem: ParabolicProblem, mesh: Mesh, M: int,
          theta: float = 1.0, operator: StepOperator | None = None):
    """Integrate the problem on a uniform M-step grid with the theta scheme.

    ``problem.data`` is one nodal field, or a block of k fields stacked as
    (k, n_vertices) that share the problem's weight, horizon, direction and
    source.  A block is integrated by one time loop: each step is one sparse
    product and one multi-column triangular solve on the (interior x k)
    block (:func:`_theta_steps`).  One field gives one DiscreteSolution; a
    block gives a list of k,
    whose ``fields`` are contiguous (M+1, n_vertices) views of one array.
    A column that goes non-finite raises SolverError naming the column(s)
    and the step.

    Without ``operator`` the solve builds its own :func:`step_operator` and
    its factor is freed on return.  A caller that solves several blocks
    with one step passes the operator it built, for this mesh and for the
    problem's weight, dt = T / M and ``theta`` (else ValueError); the
    caller then owns the factor and frees it by dropping the operator.
    """
    if not 0.5 <= theta <= 1.0:
        raise ValueError("theta must lie in [1/2, 1] (implicit schemes only)")
    if M < 2:
        raise ValueError("need at least 2 time steps")
    data = np.asarray(problem.data, dtype=float)
    single = data.ndim == 1
    block = data[None] if single else data
    if block.ndim != 2 or block.shape[1] != mesh.num_vertices:
        raise ValueError("data must be a nodal field on the mesh, or a "
                         "(k, n_vertices) block of them")

    dt = problem.T / M
    op = operator
    if op is None:
        op = step_operator(mesh, problem.weight, dt, theta)
    else:
        # a Mesh compares by identity
        wanted = {"mesh": mesh, "weight": problem.weight, "dt": dt,
                  "theta": theta}
        wrong = [name for name, value in wanted.items()
                 if getattr(op, name) != value]
        if wrong:
            raise ValueError(f"step operator was built for another "
                             f"{', '.join(wrong)} than this solve's")
    times = np.linspace(0.0, problem.T, M + 1)
    inter = mesh.interior
    u = np.zeros((len(block), M + 1, mesh.num_vertices))
    for row, ui in _theta_steps(problem, block, M, op):
        u[:, row, inter] = ui.T
    sols = [DiscreteSolution(
        mesh=mesh, theta=theta, times=times, fields=fields,
        problem=(problem if single
                 else dataclasses.replace(problem, data=block[j])),
        mass=op.mass, stiffness=op.stiffness) for j, fields in enumerate(u)]
    return sols[0] if single else sols


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ManufacturedField:
    """Closed-form space-time field with its derivatives.

    Callables take (points, t): ``value``, ``dt``, ``grad`` (n,2), ``lap``.
    ``vanishes_at_origin`` certifies second-order vanishing at x = 0, needed
    for an integrable exact-weight source when alpha < 1.
    """

    value: object
    dt: object
    grad: object
    lap: object
    vanishes_at_origin: bool = False


def manufactured_source(target: ManufacturedField, weight):
    """Source f = d_t(phi*) - grad w . grad phi* - w lap phi* (chain rule)."""
    w = as_weight(weight)
    if (isinstance(w, AbsPowerWeight) and w.p < 1.0
            and not target.vanishes_at_origin):
        raise ValueError(
            "exact weight with alpha < 1 requires a target vanishing at "
            "the origin; otherwise the source is not square-integrable")

    def source(x, t):
        adv = np.einsum("nd,nd->n", w.gradient(x), target.grad(x, t))
        return target.dt(x, t) - adv - w(x) * target.lap(x, t)

    return source


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------

def energy_report(sol: DiscreteSolution) -> dict:
    """Discrete energy quantities and the empirical stability constant.

    For f = 0 the theta scheme satisfies the exact identity
    (1/2)||u_M||^2 + sum dt a(u_theta, u_theta)
    + (theta - 1/2) sum ||u_{n+1} - u_n||^2 = (1/2)||u_0||^2, with
    u_theta = theta u_{n+1} + (1 - theta) u_n, so ``identity_constant`` is 1
    up to solver tolerance; ``grad_energy`` is the sum over u_theta.
    """
    u = sol.forward_fields()
    dt, th = sol.dt, sol.theta
    Mm, A = sol.mass, sol.stiffness
    l2sq = _quadratic_sums(Mm, u)
    uth = th * u[1:] + (1.0 - th) * u[:-1]
    grad_energy = float(dt * np.sum(_quadratic_sums(A, uth)))
    jumpsq = float(np.sum(_quadratic_sums(Mm, np.diff(u, axis=0))))
    sup_l2_sq = float(np.max(l2sq))
    data_sq = float(l2sq[0])

    identity_lhs = 0.5 * float(l2sq[-1]) + grad_energy + (th - 0.5) * jumpsq
    identity_constant = 0.0 if data_sq == 0.0 else identity_lhs / (0.5 * data_sq)

    rhs = data_sq + _source_data_norms(sol)
    lhs = sup_l2_sq + grad_energy
    empirical = 0.0 if rhs == 0.0 else lhs / rhs
    return {
        "sup_l2_sq": sup_l2_sq,
        "grad_energy": grad_energy,
        "data_sq": data_sq,
        "rhs_bound": rhs,
        "empirical_constant": empirical,
        "identity_constant": identity_constant,
    }


def _source_data_norms(sol: DiscreteSolution) -> float:
    """||f||^2_{L2(Q; w^-1)} of the source: per time, the cell sums of
    f^2 (1/w) on the level-3 rule refined within max(the weight's
    ``quadrature_radius``, 4h), all times in one :meth:`Mesh.pair_forms`."""
    prob, mesh = sol.problem, sol.mesh
    if prob.source is None:
        return 0.0
    w, inv = prob.weight, {}
    sub = max(0.0 if w is None else w.quadrature_radius, 4.0 * mesh.h)

    def density(x, t):
        # 1/w once per chunk: every time's rule is called on one points array
        if inv.get("x") is not x:
            inv.update(x=x, v=1.0 if w is None else 1.0 / w(x))
        return np.asarray(prob.source(x, t), dtype=float) ** 2 * inv["v"]
    sums = np.zeros((len(sol.times), mesh.num_cells))
    mesh.pair_forms([(lambda x, t=t: density(x, t), 3) for t in sol.times],
                    sub, cell_sums=sums)
    return float(time_weights(sol.times) @ sums.sum(axis=1))


def boundary_mass_matrix(mesh: Mesh) -> sp.csr_matrix:
    """1D consistent mass on the boundary edge loops (full vertex indexing)."""
    e = mesh.boundary_edges
    _, lengths = mesh.boundary_edge_average()
    local = lengths[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]]) / 6.0
    rows = np.repeat(e, 2, axis=1).reshape(-1, 2, 2)
    cols = np.tile(e, 2).reshape(-1, 2, 2)
    return sp.coo_matrix((local.ravel(), (rows.ravel(), cols.ravel())),
                         shape=(mesh.num_vertices,) * 2).tocsr()


def boundary_flux(sol: DiscreteSolution) -> np.ndarray:
    """Variational recovery of d(phi)/d(nu) at boundary vertices per time node.

    Solves the boundary mass system for the weighted co-normal flux
    w d(phi)/d(nu) from the interior residual of the weak form, then divides
    by the weight at the boundary (where it never degenerates).  Returned in
    physical time with shape (M+1, n_boundary_vertices), ordered by vertex id.
    """
    mesh = sol.mesh
    prob = sol.problem
    u = sol.forward_fields()
    dt = sol.dt
    bidx = np.flatnonzero(mesh.boundary_mask)
    B_lu = mesh.cached("boundary_mass_lu", lambda: _factor_spd(
        boundary_mass_matrix(mesh)[bidx][:, bidx]))
    wb = (np.ones(len(bidx)) if prob.weight is None
          else prob.weight(mesh.vertices[bidx]))
    if np.any(wb <= 0.0):
        raise ValueError("weight degenerates on the boundary; flux undefined")

    # the weak-form residual of every step at once, one column per step, on
    # the boundary rows only (a CSR row sums alone, so these are the bits of
    # the full residual's rows)
    th = sol.theta
    r = (sol.mass[bidx] @ ((u[1:] - u[:-1]) / dt).T
         + sol.stiffness[bidx] @ (th * u[1:] + (1.0 - th) * u[:-1]).T)
    backward = prob.direction == "backward"
    if prob.source is not None:
        phys_t = prob.T - sol.times if backward else sol.times
        f = load_vectors(mesh, prob.source, phys_t)[bidx]
        r = r - (th * f[:, 1:] + (1.0 - th) * f[:, :-1])
    flux = np.empty((len(sol.times), len(bidx)))
    flux[1:] = (B_lu.solve(r) / wb[:, None]).T
    flux[0] = flux[1]
    if backward:
        flux = flux[::-1].copy()
    return flux
