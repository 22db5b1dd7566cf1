"""Embeddability toolkit for finite partial groupoids.

The package decides, up to a search bound, whether a finite partial
groupoid embeds into a groupoid, by hunting for words with two distinct
full-contraction values.  It also builds the universal non-embeddable
gluings from polygon triangulation pairs, computes their degree, and
implements the monoid of reduced jagged strings over a finite category.
"""
from .category import (
    CategoryError,
    FiniteCategory,
    cyclic_group,
    interval_groupoid,
    pair_groupoid,
    path_category,
)
from .degree import (
    DegreeError,
    StarryWord,
    degree3_witness,
    degree_model,
    degree_na,
    has_cone,
    starry_member,
)
from .formats import (
    FormatError,
    emit_cat,
    emit_pgd,
    format_word,
    load_cat,
    load_pgd,
    parse_cat,
    parse_pgd,
    parse_word,
    save_pgd,
)
from .model import (
    Edge,
    Hom,
    HomError,
    ModelError,
    SpininessError,
    TruncatedModel,
    ValidationReport,
    enumerate_homs,
    identity_hom,
    identity_name,
    iter_homs,
    nerve_truncation,
    orbit_images,
    symmetrize,
    verify_hom,
)
from .monoid import (
    EmbedReport,
    NormalForm,
    RewriteError,
    embed_check,
    monoid_inverse,
    monoid_mult,
    monoid_unit,
    normalize,
    reduce_model,
)
from .polygon import (
    COMPATIBLE,
    GluedModel,
    GluingError,
    INCOMPATIBLE,
    OrthogonalityResult,
    PeelResult,
    Triangulation,
    TriangulationError,
    WELL_BEHAVED,
    build_glued,
    build_raw_gluing,
    enumerate_triangulations,
    factor_through_circular,
    flip_adjacent,
    orthogonality_check,
    pair_classify,
    parse_parenthesization,
    peel,
    peel_step,
    tamari_to_triangulation,
    triangulation_to_tamari,
    violator_from_mean_word,
)
from .words import (
    MeanScanResult,
    Presentation,
    PregroupReport,
    ReflectResult,
    WordError,
    Zigzag,
    abelian_suspects,
    check_word,
    contract,
    contractions,
    contracts_to,
    find_zigzag,
    is_mean,
    mean_scan,
    mountain,
    mountain_from_zigzag,
    pregroup_axiom_check,
    reflect_bounded,
    tau_presentation,
    value_trees,
    values,
    verify_zigzag,
    word_inverse,
)

__version__ = "0.1.0"
