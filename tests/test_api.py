"""Public names and public record fields, pinned so that any change shows in a diff."""

import dataclasses

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
    "certify_family",
    "certify_presentation",
    "clear_denominators",
    "contains_binomial",
    "default_degree_bound",
    "determinant",
    "dimension",
    "enumerate_kernel_binomials",
    "evaluate",
    "format_binomial",
    "format_monomial",
    "hermite_normal_form",
    "homogeneity_certificate",
    "kernel_lattice",
    "membership_by_classes",
    "normalize_pin",
    "parametrization_from_lattice",
    "parse_binomial",
    "rank",
    "reduces_to_zero",
    "relabel_binomial",
    "reparametrize",
    "saturate_lattice",
    "smith_normal_form",
    "solve_row_rational",
    "split_disjoint",
    "sum_disjoint",
    "sum_family",
    "sum_shared",
]

PUBLIC_FIELDS = {
    "CertificationVerdict": ("status", "witness", "degree_checked"),
    "FamilyReport": ("graph", "input_dimensions", "rank_dimension", "merges"),
    "GraphComponent": ("vertices", "is_tree"),
    "IdealFamilyGraph": ("ids", "edges", "components"),
    "Parametrization": ("params", "vars", "matrix"),
    "PinResult": ("parametrization", "pinned_param_index", "exponent"),
    "SumConstruction": ("result", "gamma"),
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(toricsum.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in toricsum.__all__:
        assert getattr(toricsum, name) is not None, name


def test_public_record_fields_are_pinned():
    for name, fields in PUBLIC_FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(getattr(toricsum, name))) == fields, name
