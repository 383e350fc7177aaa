"""Published pair-handling tables for each emulated implementation.

Transcribed by hand as literal data, independent of the profile table in
the package, so conformance tests compare two separate encodings of the same
documented behaviour.

Keys are case labels; values are (comparable_weight, credit) or None for
excluded pairs.  Rank suffix convention: A = anchor ranked riskier (for
distribution input: smaller survival at the anchor's time), B = anchor ranked
less risky, C = tied predictions.  Cases 3 and 4 (anchor not first or
censored first), 7x (tied times, anchor censored) and 8 (tied times, both
censored) are excluded everywhere except where listed.
"""

EXCLUDED = None

_SHARED_STRICT = {
    "1A": (1.0, 1.0), "1B": (1.0, 0.0),
    "2A": (1.0, 1.0), "2B": (1.0, 0.0),
    "3": EXCLUDED, "4": EXCLUDED, "8": EXCLUDED,
    "7A": EXCLUDED, "7B": EXCLUDED, "7C": EXCLUDED,
}


def _full(**entries):
    table = {
        **_SHARED_STRICT,
        "1C": EXCLUDED, "2C": EXCLUDED,
        "5A": EXCLUDED, "5B": EXCLUDED, "5C": EXCLUDED,
        "6A": EXCLUDED, "6B": EXCLUDED, "6C": EXCLUDED,
    }
    table.update(entries)
    return table


GOLDEN_CASE_TABLES = {
    "hmisc": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "hmisc_outx": _full(
        **{"6A": (1.0, 1.0), "6B": (1.0, 0.0)}
    ),
    "survmetrics": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "5A": (1.0, 0.5), "5B": (1.0, 0.5), "5C": (1.0, 1.0),
           "6A": (1.0, 1.0), "6B": (1.0, 0.5), "6C": (1.0, 0.5)}
    ),
    "lifelines": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "pysurvival": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "pysurvival_noties": _full(
        **{"1C": (1.0, 0.0), "2C": (1.0, 0.0),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.0)}
    ),
    "sksurv_censored": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "sksurv_ipcw": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "pec": _full(  # tiedOutcomeIn = tiedPredIn = tiedMatchIn = TRUE
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "5A": (1.0, 1.0), "5B": (1.0, 0.0), "5C": (1.0, 1.0),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "survival_n": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "survival_n_g2": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5)}
    ),
    "survc1": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 1.0)}
    ),
    "pycox_ant": _full(
        **{"1C": (1.0, 0.0), "2C": (1.0, 0.0),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.0)}
    ),
    "pycox_adj_ant": _full(
        **{"1C": (1.0, 0.5), "2C": (1.0, 0.5),
           "5A": (1.0, 0.5), "5B": (1.0, 0.5), "5C": (1.0, 1.0),
           "6A": (1.0, 1.0), "6B": (1.0, 0.0), "6C": (1.0, 0.5),
           "7A": (1.0, 0.0), "7B": (1.0, 1.0), "7C": (1.0, 0.5)}
    ),
}

# pec's tie switches (tiedOutcomeIn, tiedPredIn, tiedMatchIn) -> entries for
# the two ambiguous cases; every other case follows the shared pattern with
# 1C/2C gated by tiedPredIn and 5A/5B gated by tiedOutcomeIn.
PEC_FLAG_TABLE = {
    (1, 1, 1): {"5C": (1.0, 1.0), "6C": (1.0, 0.5)},
    (1, 1, 0): {"5C": (1.0, 0.5), "6C": (1.0, 0.5)},
    (1, 0, 1): {"5C": (1.0, 1.0), "6C": EXCLUDED},
    (1, 0, 0): {"5C": EXCLUDED, "6C": EXCLUDED},
    (0, 1, 1): {"5C": (1.0, 1.0), "6C": (1.0, 0.5)},
    (0, 1, 0): {"5C": (1.0, 0.0), "6C": (1.0, 0.5)},
    (0, 0, 1): {"5C": (1.0, 1.0), "6C": EXCLUDED},
    (0, 0, 0): {"5C": EXCLUDED, "6C": EXCLUDED},
}

#: Expected weighting scheme per shipped profile.
GOLDEN_WEIGHT_SCHEMES = {
    "hmisc": "uniform",
    "hmisc_outx": "uniform",
    "survmetrics": "uniform",
    "lifelines": "uniform",
    "pysurvival": "pec_product",
    "pysurvival_noties": "pec_product",
    "sksurv_censored": "uniform",
    "sksurv_ipcw": "uno_squared",
    "pec": "pec_product",
    "survival_n": "uniform",
    "survival_n_g2": "uno_squared",
    "survc1": "uno_squared",
    "pycox_ant": "uniform",
    "pycox_adj_ant": "uniform",
}

#: Every other setting of each shipped profile, in the order the package lists
#: them: (family, requires_tau, tie tolerance, g_source, truncation mode,
#: final fold).
GOLDEN_SETTINGS = {
    "hmisc": ("C", False, 0.0, "test_set", "none", "identity"),
    "hmisc_outx": ("C", False, 0.0, "test_set", "none", "identity"),
    "survmetrics": ("C", False, 0.0, "test_set", "none", "identity"),
    "lifelines": ("C", False, 0.0, "test_set", "none", "identity"),
    "pysurvival": ("C", False, 0.0, "test_set", "none", "max_with_complement"),
    "pysurvival_noties": ("C", False, 0.0, "test_set", "none", "max_with_complement"),
    "sksurv_censored": ("C", False, 1e-8, "test_set", "none", "identity"),
    "sksurv_ipcw": ("C_tau", False, 1e-8, "provided", "none", "identity"),
    "pec": ("C_tau", False, 0.0, "test_set", "max_uncensored", "identity"),
    "survival_n": ("C_tau", False, 0.0, "test_set", "none", "identity"),
    "survival_n_g2": ("C_tau", False, 0.0, "test_set", "none", "identity"),
    "survc1": ("C_tau", True, 0.0, "test_set", "none", "identity"),
    "pycox_ant": ("C_td", False, 0.0, "test_set", "none", "identity"),
    "pycox_adj_ant": ("C_td", False, 0.0, "test_set", "none", "identity"),
}
