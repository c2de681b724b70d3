"""Every re-check has a corruption test that makes it fire.

``RECHECKS`` names each ``raise CertificateError`` / ``raise
NotACocycle`` site in ``src/kfan`` by its module, its function and its
message (an f-string's fields written ``...``), never by line number,
together with the tests that corrupt a producer upstream of the check
and see it raise.  The meta-test walks the package with ``ast`` and
fails on a site the table does not list and on an entry no site has,
so a new re-check lands with its corruption.  The tests run in-process,
and so under ``python -O`` too when the suite does; a name ``[id]``
picks one case of a parametrized test.
"""

import ast
import os

import kfan

HERE = os.path.dirname(__file__)
PACKAGE = os.path.dirname(kfan.__file__)
RAISED = ("CertificateError", "NotACocycle")

RECHECKS = {
    ("cech", "CechComplex.solve_coboundary", "the right-hand side has nonzero differential"): [
        "test_cech.py::test_solve_coboundary_rejects_noncocycles",
    ],
    ("cech", "CechComplex.solve_coboundary", "witness fails d(b) = z at level ..."): [
        "test_cech.py::test_wrong_contraction_is_a_certificate_error_not_a_noncocycle",
    ],
    ("cech", "CechComplex.random_cocycle", "sampled level-... cochain is not a cocycle"): [
        "test_cech.py::test_a_sampled_cochain_that_is_no_cocycle_is_refused",
    ],
    ("cli", "_cone_entry", "character group of ... has rank ..., not ..."): [
        "test_cli.py::test_a_cone_entry_rechecks_its_character_rank",
    ],
    ("cli", "cmd_k0_global", "character tuple for ... is not a cocycle"): [
        "test_cli.py::test_a_character_tuple_that_is_no_section_is_caught",
    ],
    ("cones", "dual_ray_generators", "rank ... and kernel rank ... disagree in Z^..."): [
        "test_certificate_paths.py::test_check_raises[dual_rank_and_kernel_rank_disagree]",
    ],
    ("cones", "Cone.from_rays", "the facets of the cone on ... cut out a line"): [
        "test_cones.py::test_from_rays_cross_checks_raise",
        "test_cones.py::test_from_rays_cross_checks_raise_on_the_square",
    ],
    ("cones", "Cone.from_rays", "ray ... violates a facet of the cone on ..."): [
        "test_cones.py::test_from_rays_cross_checks_raise",
        "test_cones.py::test_from_rays_cross_checks_raise_on_the_square",
    ],
    ("cones", "Cone.from_rays", "facet ... of the cone on ... is not tight on rank ..."): [
        "test_cones.py::test_from_rays_cross_checks_raise",
        "test_cones.py::test_from_rays_cross_checks_raise_on_the_square",
    ],
    ("cones", "Cone.from_rays", "ray ... of the cone on ... is not one of its rays"): [
        "test_cones.py::test_from_rays_cross_checks_raise_on_the_square",
    ],
    ("cones", "Cone.intersection", "the meet of two strongly convex cones contains a line"): [
        "test_certificate_paths.py::test_check_raises[meet_contains_a_line]",
    ],
    ("cones", "Cone.character_quotient", "the projection onto the character group of ... is not onto"): [
        "test_sheaves.py::test_a_stalk_whose_projection_is_not_onto_is_rejected_on_first_read",
        "test_cli.py::test_a_character_group_is_certified_where_it_is_built",
    ],
    ("cones", "Cone.character_quotient", "character group of ... is not free of rank ..."): [
        "test_cones.py::test_character_quotient_freeness_check_raises",
        "test_sheaves.py::test_an_interned_stalk_is_checked_against_the_cone_that_takes_it",
    ],
    ("cones", "_simplicial_facets", "rank ... and kernel rank ... disagree in Z^..."): [
        "test_cones.py::test_pairing_check_raises[kernel-rank]",
    ],
    ("cones", "_simplicial_facets", "the rays ... and their lineality are dependent"): [
        "test_cones.py::test_pairing_check_raises[dependent]",
    ],
    ("cones", "_simplicial_facets", "facet ... of the cone on ... fails the pairing check"): [
        "test_cones.py::test_pairing_check_raises[off-diagonal]",
        "test_certificate_paths.py::test_check_raises[simplicial_facet_not_tight]",
    ],
    ("cones", "_simplicial_facets", "the lineality of the cone on ... meets its rays"): [
        "test_cones.py::test_pairing_check_raises[lineality]",
        "test_certificate_paths.py::test_check_raises[simplicial_lineality_meets_rays]",
    ],
    ("intlinalg", "_SmithWorkspace.row_block", "row operation of determinant ... is not unimodular"): [
        "test_certificate_paths.py::test_check_raises[row_block_not_unimodular]",
    ],
    ("intlinalg", "_SmithWorkspace.col_block", "column operation of determinant ... is not unimodular"): [
        "test_certificate_paths.py::test_check_raises[col_block_not_unimodular]",
    ],
    ("intlinalg", "QuotientSurjection.splitting", "splitting is not a right inverse of the surjection"): [
        "test_intlinalg.py::test_canonical_surjection_rejects_a_wrong_splitting",
        "test_cli.py::test_a_wrong_splitting_is_caught_at_its_first_lift",
    ],
    ("intlinalg", "canonical_surjection", "surjection does not commute with the projections"): [
        "test_intlinalg.py::test_canonical_surjection_rejects_a_map_off_the_projections",
    ],
    ("monoids", "_parallelepiped_points", "point ... is not at ... / ... on the rays"): [
        "test_monoids.py::test_a_point_off_its_rays_is_named_with_its_remainders",
        "test_certificate_paths.py::test_check_raises[parallelepiped_corrupted_diagonal]",
    ],
    ("monoids", "_pulling_triangulation", "pointed cone of dimension ... <= 2 has ... rays"): [
        "test_certificate_paths.py::test_check_raises[pointed_hilbert_basis_low_dimension]",
    ],
    (
        "monoids",
        "_pulling_triangulation",
        "facet ... of the cone on ... is not the ...-dimensional cone on its tight rays ...",
    ): [
        "test_certificate_paths.py::test_check_raises[star_triangulation_bad_facet]",
    ],
    ("monoids", "_pointed_hilbert_basis", "degree ... is not positive on ... of the cone"): [
        "test_certificate_paths.py::test_check_raises[pointed_hilbert_basis_degree_not_positive]",
    ],
    ("monoids", "AffineMonoid.contains", "a nonunit generator has a torsion image"): [
        "test_certificate_paths.py::test_check_raises[contains_torsion_image]",
    ],
    ("monoids", "AffineMonoid.contains", "the nonunit generators do not span a pointed cone"): [
        "test_certificate_paths.py::test_check_raises[contains_not_pointed]",
    ],
    ("sheaves", "RayStalk.chart", "ray map of ... is not unimodular"): [
        "test_certificate_paths.py::test_check_raises[ray_chart_not_unimodular]",
    ],
    ("sheaves", "RayStalk.chart", "ray chart of ... fails its cross-check"): [
        "test_constructive.py::test_ray_chart_cross_check_raises_certificate_error",
    ],
    ("sheaves", "first_disagreement", "the incidence walk found a disagreement that no pair has"): [
        "test_sheaves.py::test_a_disagreement_that_no_pair_has_is_refused",
    ],
    ("sheaves", "extend_section", "extension is not a global section"): [
        "test_sheaves.py::test_an_extension_that_is_no_section_is_refused",
    ],
    ("sheaves", "extend_section", "extension does not restrict to the given section"): [
        "test_sheaves.py::test_an_extension_that_restricts_elsewhere_is_refused",
    ],
    ("sheaves", "random_section", "sampled family is not a section"): [
        "test_sheaves.py::test_a_sampled_family_that_is_no_section_is_refused[smooth]",
        "test_sheaves.py::test_a_sampled_family_that_is_no_section_is_refused[non-smooth]",
    ],
}


def message(node) -> str:
    """A raise's message: a string, or an f-string with ``...`` for each
    formatted field."""
    if isinstance(node, ast.Constant):
        return node.value
    assert isinstance(node, ast.JoinedStr), ast.dump(node)
    return "".join(v.value if isinstance(v, ast.Constant) else "..." for v in node.values)


def recheck_sites() -> list:
    """(module, function, message) of every re-check raise in the package,
    the function named with its class."""
    sites = []

    def walk(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, module, scope + [child.name])
                continue
            exc = child.exc if isinstance(child, ast.Raise) else None
            if isinstance(exc, ast.Call) and getattr(exc.func, "id", None) in RAISED:
                sites.append((module, ".".join(scope), message(exc.args[0])))
            walk(child, module, scope)

    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name)) as f:
                walk(ast.parse(f.read()), name[:-3], [])
    return sites


def test_the_walk_finds_the_sites():
    sites = recheck_sites()
    assert len(sites) >= 33 and len(set(sites)) == len(sites)
    assert ("sheaves", "random_section", "sampled family is not a section") in sites


def test_every_recheck_site_has_its_corruption_test():
    sites = set(recheck_sites())
    unlisted = sorted(sites - RECHECKS.keys())
    stale = sorted(RECHECKS.keys() - sites)
    assert not unlisted, f"re-check sites with no corruption test in RECHECKS: {unlisted}"
    assert not stale, f"RECHECKS entries that name no site: {stale}"


def test_every_named_corruption_test_exists():
    missing = []
    for tests in RECHECKS.values():
        assert tests
        for name in tests:
            path, test = name.split("::")
            function, _, case = test.partition("[")
            with open(os.path.join(HERE, path)) as f:
                source = f.read()
            defined = {
                node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            }
            if function not in defined or case.rstrip("]") not in source:
                missing.append(name)
    assert not missing, f"RECHECKS names tests that do not exist: {missing}"
