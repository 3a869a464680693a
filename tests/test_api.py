"""The public names of the package, pinned so that any change shows in a diff."""

import toricsum

PUBLIC_NAMES = [
    "Binomial",
    "CertificationVerdict",
    "ConstructionError",
    "DegreeBound",
    "EQUAL_UP_TO_DEGREE",
    "FamilyReport",
    "GraphComponent",
    "HomogeneityCertificate",
    "IdealFamilyGraph",
    "IntegerMatrix",
    "LatticeBasis",
    "MISSING_IN_KERNEL",
    "MISSING_IN_SUM",
    "Monomial",
    "Parametrization",
    "PinResult",
    "RationalMatrix",
    "SmithDecomposition",
    "SumConstruction",
    "VariableSet",
    "build_family_graph",
    "certify_presentation",
    "clear_denominators",
    "contains_binomial",
    "default_degree_bound",
    "dehomogenize_binomial",
    "dehomogenize_parametrization",
    "determinant",
    "dimension",
    "enumerate_kernel_binomials",
    "evaluate",
    "extend_to_basis",
    "format_binomial",
    "format_monomial",
    "hermite_normal_form",
    "homogeneity_certificate",
    "homogenize_binomial",
    "independent_rows",
    "inverse_and_clear",
    "kernel_lattice",
    "membership_by_classes",
    "normalize_pin",
    "parametrization_from_lattice",
    "parse_binomial",
    "rank",
    "reduces_to_zero",
    "relabel_binomial",
    "reparametrize",
    "rewrite_chain",
    "saturate_lattice",
    "smith_normal_form",
    "solve_row_rational",
    "split_disjoint",
    "sum_disjoint",
    "sum_family",
    "sum_shared",
]


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 56
    assert sorted(toricsum.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in toricsum.__all__:
        assert getattr(toricsum, name) is not None, name
