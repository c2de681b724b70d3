"""The consistency checks of ``intlinalg``, ``cones`` and ``monoids``
raise, also under ``python -O``.

Most of these checks cannot fail on valid input, so the cases below
reach them by handing a private function an input it never gets, by
building an inconsistent object directly, or by patching a module
attribute for the duration of one call.  Each case runs in-process and,
all together, in one ``python -O`` subprocess.
"""

import ast
import os
import subprocess
import sys

import pytest

CASES_SCRIPT = r'''
from contextlib import contextmanager

from kfan import cones, intlinalg, monoids, sheaves
from kfan.cones import Cone, Fan
from kfan.intlinalg import IntMatrix, Lattice, quotient
from kfan.monoids import AffineMonoid


@contextmanager
def patched(module, name, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


def row_block_not_unimodular():
    ws = intlinalg._SmithWorkspace(IntMatrix.identity(2), frozenset(intlinalg.TRANSFORMS))
    ws.row_block(0, 1, 2, 0, 0, 1)


def col_block_not_unimodular():
    ws = intlinalg._SmithWorkspace(IntMatrix.identity(2), frozenset(intlinalg.TRANSFORMS))
    ws.col_block(0, 1, 1, 1, 1, 1)


SKEW = [(1, 0), (1, 2)]  # the parallelepiped holds one nonzero point


def parallelepiped_dependent_rays():
    monoids._parallelepiped_points([(1, 0), (2, 0)], 2)


def reduced_as(change):
    """``smith_with_inverses`` in ``monoids`` with its (U, D, V, U^-1)
    passed through ``change``."""
    reduce = monoids.smith_with_inverses
    return patched(monoids, "smith_with_inverses", lambda a, **kw: change(*reduce(a, **kw)))


def parallelepiped_corrupted_row_inverse():
    # column 1 of U^-1 plus column 0: still unimodular, and in the same
    # class, but no longer the point at the ray coordinates V (a / d)
    def change(u, d, v, uinv):
        return u, d, v, IntMatrix([[p, p + q] for p, q in uinv.rows])

    with reduced_as(change):
        monoids._parallelepiped_points(SKEW, 2)


def parallelepiped_corrupted_column_transform():
    def change(u, d, v, uinv):
        return u, d, IntMatrix([[p, p + q] for p, q in v.rows]), uinv

    with reduced_as(change):
        monoids._parallelepiped_points(SKEW, 2)


def parallelepiped_corrupted_outer_step():
    # on 2 e_1, 2 e_2, 2 e_3 the first index steps only after the other
    # two wrap, and its column of V is off in one entry
    def change(u, d, v, uinv):
        rows = [list(r) for r in v.rows]
        rows[1][0] += 1
        return u, d, IntMatrix(rows, ncols=3), uinv

    with reduced_as(change):
        monoids._parallelepiped_points([(2, 0, 0), (0, 2, 0), (0, 0, 2)], 3)


def parallelepiped_corrupted_diagonal():
    # diag(1, 4) for diag(1, 2): four classes, of which only one exists
    def change(u, d, v, uinv):
        return u, IntMatrix([[1, 0], [0, 4]]), v, uinv

    with reduced_as(change):
        monoids._parallelepiped_points(SKEW, 2)


def parallelepiped_reduction_of_other_rays():
    # a consistent reduction, of diag(1, 2) instead of SKEW's ray matrix
    other = intlinalg.smith_with_inverses(IntMatrix([[1, 0], [0, 2]]))
    with reduced_as(lambda u, d, v, uinv: other):
        monoids._parallelepiped_points(SKEW, 2)


def star_triangulation_bad_facet():
    # the pulling triangulation stars the first ray (0, 0, 1) over its
    # one facet, whose tight rays (1, 1, 0) among them are not extreme
    rays = [(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    cone = Cone(Lattice(3), rays, facets=[(0, 0, 1)], dim=3, pointed=True)
    monoids._pulling_triangulation(cone)


def pointed_hilbert_basis_low_dimension():
    rays = [(1, 0), (0, 1), (1, 1)]
    cone = Cone(Lattice(2), rays, facets=[(1, 0), (0, 1)], dim=2, pointed=True)
    monoids._pointed_hilbert_basis(cone)


def pointed_hilbert_basis_degree_not_positive():
    # the facets sum to (1, 0), which is zero on the ray (0, 1)
    rays = [(1, 0), (0, 1)]
    cone = Cone(Lattice(2), rays, facets=[(1, -1), (0, 1)], dim=2, pointed=True)
    monoids._pointed_hilbert_basis(cone)


def contains_torsion_image():
    twice = IntMatrix([[2]])
    monoid = AffineMonoid(Lattice(1), [(1,)], twice, quotient(Lattice(1), twice))
    monoid.contains((1,))


def contains_not_pointed():
    none = IntMatrix([], ncols=1)
    monoid = AffineMonoid(Lattice(1), [(1,), (-1,)], none, quotient(Lattice(1), none))
    monoid.contains((1,))


QUADRANT = [(1, 0), (0, 1)]


def simplicial_facet_not_tight():
    with patched(cones, "normal_vector", lambda a: (1, 1)):
        Cone.from_rays(Lattice(2), QUADRANT)


def simplicial_facet_tight_on_its_ray():
    with patched(cones, "normal_vector", lambda a: (0, 1)):
        Cone.from_rays(Lattice(2), QUADRANT)


def simplicial_facet_off_the_span():
    with patched(cones, "normal_vector", lambda a: (1, 1)):
        Cone.from_rays(Lattice(2), [(1, 0)])


def simplicial_lineality_meets_rays():
    with patched(cones, "smith_kernel", lambda a: (IntMatrix([[1, 1]]), (1,))):
        Cone.from_rays(Lattice(2), [(1, 0)])


def smooth_cone_sheaf():
    cone = Cone.from_rays(Lattice(2), [(1, 0), (1, 1)])
    return cone, sheaves.sheaf_a0(Fan.from_max_cones(Lattice(2), [cone]))


def ray_chart_not_unimodular():
    cone, sheaf = smooth_cone_sheaf()
    with patched(sheaves, "det", lambda a: 2):
        sheaf.stalk(cone).chart()


def ray_chart_corrupted_inverse():
    cone, sheaf = smooth_cone_sheaf()
    adjugate = sheaves.adjugate

    def corrupted(a):
        (p, q), (r, s) = adjugate(a).rows
        return IntMatrix([[p, q + 1], [r, s]])

    with patched(sheaves, "adjugate", corrupted):
        sheaf.stalk(cone).chart()


CASES = {
    fn.__name__: fn
    for fn in (
        row_block_not_unimodular,
        col_block_not_unimodular,
        parallelepiped_dependent_rays,
        parallelepiped_corrupted_row_inverse,
        parallelepiped_corrupted_column_transform,
        parallelepiped_corrupted_outer_step,
        parallelepiped_corrupted_diagonal,
        parallelepiped_reduction_of_other_rays,
        star_triangulation_bad_facet,
        pointed_hilbert_basis_low_dimension,
        pointed_hilbert_basis_degree_not_positive,
        contains_torsion_image,
        contains_not_pointed,
        simplicial_facet_not_tight,
        simplicial_facet_tight_on_its_ray,
        simplicial_facet_off_the_span,
        simplicial_lineality_meets_rays,
        ray_chart_not_unimodular,
        ray_chart_corrupted_inverse,
    )
}

if __name__ == "__main__":
    for name, fn in CASES.items():
        try:
            fn()
        except Exception as e:
            print(name, type(e).__name__)
        else:
            print(name, "nothing")
'''

EXPECTED = {
    "row_block_not_unimodular": "CertificateError",
    "col_block_not_unimodular": "CertificateError",
    "parallelepiped_dependent_rays": "ValueError",
    "parallelepiped_corrupted_row_inverse": "CertificateError",
    "parallelepiped_corrupted_column_transform": "CertificateError",
    "parallelepiped_corrupted_outer_step": "CertificateError",
    "parallelepiped_corrupted_diagonal": "CertificateError",
    "parallelepiped_reduction_of_other_rays": "CertificateError",
    "star_triangulation_bad_facet": "CertificateError",
    "pointed_hilbert_basis_low_dimension": "CertificateError",
    "pointed_hilbert_basis_degree_not_positive": "CertificateError",
    "contains_torsion_image": "CertificateError",
    "contains_not_pointed": "CertificateError",
    "simplicial_facet_not_tight": "CertificateError",
    "simplicial_facet_tight_on_its_ray": "CertificateError",
    "simplicial_facet_off_the_span": "CertificateError",
    "simplicial_lineality_meets_rays": "CertificateError",
    "ray_chart_not_unimodular": "CertificateError",
    "ray_chart_corrupted_inverse": "CertificateError",
}


def _cases():
    namespace = {"__name__": "certificate_cases"}
    exec(CASES_SCRIPT, namespace)
    return namespace["CASES"]


@pytest.fixture(scope="module")
def optimized_outcomes():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", CASES_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return dict(line.split() for line in proc.stdout.splitlines())


def test_every_case_is_listed():
    assert set(_cases()) == set(EXPECTED)


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_check_raises(name):
    from kfan.intlinalg import CertificateError

    expected = {"CertificateError": CertificateError, "ValueError": ValueError}[EXPECTED[name]]
    with pytest.raises(expected):
        _cases()[name]()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_check_raises_under_python_O(optimized_outcomes, name):
    assert optimized_outcomes[name] == EXPECTED[name]


def test_the_library_has_no_assert_statement():
    # python -O strips assert statements, so every check must raise; a
    # grep for "assert " would miss assert(x)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src", "kfan")
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read(), name)
            found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []
