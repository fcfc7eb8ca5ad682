"""Element data used by parsing, valence accounting and featurization."""

from __future__ import annotations

# Elements writable without brackets (organic subset). A scanner tries the
# two-character symbols before their one-character prefixes.
ORGANIC_SUBSET = frozenset({"Br", "Cl", "B", "C", "N", "O", "P", "S", "F", "I"})

# Lowercase symbols accepted as aromatic atoms, in and out of brackets.
AROMATIC_SYMBOLS = ("se", "as", "te", "b", "c", "n", "o", "p", "s")

# symbol -> (atomic mass in u, default valences smallest-first, valence electrons)
# Default valences are the allowed valences; an empty tuple means the element
# takes no implicit hydrogens. Valence electrons are None for elements where
# the lone-pair heuristic is not attempted (hybridization then falls back to
# "other").
ELEMENTS = {
    "H": (1.008, (1,), 1),
    "B": (10.81, (3,), 3),
    "C": (12.011, (4,), 4),
    "N": (14.007, (3,), 5),
    "O": (15.999, (2,), 6),
    "F": (18.998, (1,), 7),
    "Na": (22.990, (), 1),
    "Mg": (24.305, (), 2),
    "Al": (26.982, (), 3),
    "Si": (28.085, (4,), 4),
    "P": (30.974, (3, 5), 5),
    "S": (32.06, (2, 4, 6), 6),
    "Cl": (35.45, (1,), 7),
    "K": (39.098, (), 1),
    "Ca": (40.078, (), 2),
    "Fe": (55.845, (), None),
    "Cu": (63.546, (), None),
    "Zn": (65.38, (), None),
    "Ga": (69.723, (), 3),
    "Ge": (72.63, (4,), 4),
    "As": (74.922, (3, 5), 5),
    "Se": (78.971, (2, 4, 6), 6),
    "Br": (79.904, (1,), 7),
    "Sr": (87.62, (), 2),
    "Ag": (107.868, (), None),
    "Sn": (118.71, (), 4),
    "Sb": (121.76, (3, 5), 5),
    "Te": (127.60, (2, 4, 6), 6),
    "I": (126.904, (1,), 7),
    "Ba": (137.327, (), 2),
    "Pt": (195.084, (), None),
    "Au": (196.967, (), None),
    "Hg": (200.592, (), None),
    "Tl": (204.38, (), 3),
    "Pb": (207.2, (), 4),
    "Bi": (208.980, (3, 5), 5),
    "At": (210.0, (1,), 7),
    "Li": (6.94, (), 1),
}

