"""The printed rho-inverse rows of SL2(q) as transcribed, pinned for q = 5..13.

Keyed by q, then by printed column ("left", "right"), then by row name in
the printed order; each row is (targets, {label: str(coefficient)}) with
the coefficients in the order the row lists them.  Recorded from the
row-by-row transcription that the one-literal table replaced, so a typo
in either column, the selected one or the rejected one, fails a test.
"""

RHO_ROWS = {
    5: {
        "left": {
            "eta": (
                ("eta1", "eta2"),
                {"eta1": "2", "eta2": "2", "theta1": "4", "chi1": "6"},
            ),
            "xi": (
                ("xi1", "xi2"),
                {"1": "4", "xi1": "2", "xi2": "2", "theta2": "6"},
            ),
            "theta_odd": (
                ("theta1",),
                {"eta1": "1", "eta2": "1", "theta1": "2", "chi1": "3"},
            ),
            "theta_even": (
                ("theta2",),
                {"1": "-2", "xi1": "4", "xi2": "4", "theta2": "2"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "theta2": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1",),
                {"eta1": "2", "eta2": "2", "chi1": "2"},
            ),
            "chi_even": (
                (),
                {"1": "2", "xi1": "1", "xi2": "1", "theta2": "3"},
            ),
        },
        "right": {
            "eta": (
                ("eta1", "eta2"),
                {"1": "4", "eta1": "2", "eta2": "2", "theta2": "4", "psi": "8"},
            ),
            "xi": (
                ("xi1", "xi2"),
                {"xi1": "2", "xi2": "2", "theta1": "4", "chi1": "4"},
            ),
            "theta_odd": (
                ("theta1",),
                {"xi1": "3", "xi2": "3", "theta1": "2"},
            ),
            "theta_even": (
                ("theta2",),
                {"1": "2", "eta1": "1", "eta2": "1", "theta2": "2", "psi": "4"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "eta1": "2", "eta2": "2", "theta2": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1",),
                {"xi1": "1", "xi2": "1", "chi1": "10/3"},
            ),
            "chi_even": (
                (),
                {"1": "2", "eta1": "3", "eta2": "3"},
            ),
        },
    },
    7: {
        "left": {
            "eta": (
                ("eta1", "eta2"),
                {"eta1": "2", "eta2": "2", "theta1": "4", "theta3": "4", "chi1": "8"},
            ),
            "xi": (
                ("xi1", "xi2"),
                {"1": "4", "xi1": "2", "xi2": "2", "theta2": "8", "chi2": "4"},
            ),
            "theta_odd": (
                ("theta1", "theta3"),
                {"eta1": "1", "eta2": "1", "theta1": "2", "theta3": "2", "chi1": "4"},
            ),
            "theta_even": (
                ("theta2",),
                {"1": "-2", "xi1": "5", "xi2": "5", "theta2": "2"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "theta2": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1",),
                {"eta1": "3", "eta2": "3", "chi1": "2"},
            ),
            "chi_even": (
                ("chi2",),
                {"1": "2", "xi1": "1", "xi2": "1", "theta2": "4", "chi2": "2"},
            ),
        },
        "right": {
            "eta": (
                ("eta1", "eta2"),
                {"1": "6", "eta1": "2", "eta2": "2", "theta2": "4", "psi": "10"},
            ),
            "xi": (
                ("xi1", "xi2"),
                {"xi1": "2", "xi2": "2", "theta1": "6", "chi1": "4"},
            ),
            "theta_odd": (
                ("theta1", "theta3"),
                {"xi1": "4", "xi2": "4", "theta1": "2", "theta3": "2"},
            ),
            "theta_even": (
                ("theta2",),
                {"1": "3", "eta1": "1", "eta2": "1", "theta2": "2", "psi": "5"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "eta1": "2", "eta2": "2", "theta2": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1",),
                {"xi1": "1", "xi2": "1", "chi1": "4"},
            ),
            "chi_even": (
                ("chi2",),
                {"1": "2", "eta1": "4", "eta2": "4", "chi2": "2"},
            ),
        },
    },
    9: {
        "left": {
            "eta": (
                ("eta1", "eta2"),
                {"eta1": "2", "eta2": "2", "theta1": "4", "theta3": "4", "chi1": "10"},
            ),
            "xi": (
                ("xi1", "xi2"),
                {"1": "4", "xi1": "2", "xi2": "2", "theta2": "10", "chi2": "4"},
            ),
            "theta_odd": (
                ("theta1", "theta3"),
                {"eta1": "1", "eta2": "1", "theta1": "2", "theta3": "2", "chi1": "5"},
            ),
            "theta_even": (
                ("theta2", "theta4"),
                {"1": "-2", "xi1": "6", "xi2": "6", "theta2": "2", "theta4": "2"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "theta2": "4", "theta4": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1", "chi3"),
                {"eta1": "4", "eta2": "4", "chi1": "2", "chi3": "2"},
            ),
            "chi_even": (
                ("chi2",),
                {"1": "2", "xi1": "1", "xi2": "1", "theta2": "5", "chi2": "2"},
            ),
        },
        "right": {
            "eta": (
                ("eta1", "eta2"),
                {
                    "1": "8",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "psi": "12",
                },
            ),
            "xi": (
                ("xi1", "xi2"),
                {"xi1": "2", "xi2": "2", "theta1": "8", "chi1": "4", "chi3": "4"},
            ),
            "theta_odd": (
                ("theta1", "theta3"),
                {"xi1": "5", "xi2": "5", "theta1": "2", "theta3": "2"},
            ),
            "theta_even": (
                ("theta2", "theta4"),
                {
                    "1": "4",
                    "eta1": "1",
                    "eta2": "1",
                    "theta2": "2",
                    "theta4": "2",
                    "psi": "6",
                },
            ),
            "psi": (
                ("psi",),
                {
                    "1": "-2",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "psi": "2",
                },
            ),
            "chi_odd": (
                ("chi1", "chi3"),
                {"xi1": "1", "xi2": "1", "chi1": "14/3", "chi3": "2"},
            ),
            "chi_even": (
                ("chi2",),
                {"1": "2", "eta1": "5", "eta2": "5", "chi2": "2"},
            ),
        },
    },
    11: {
        "left": {
            "eta": (
                ("eta1", "eta2"),
                {
                    "eta1": "2",
                    "eta2": "2",
                    "theta1": "4",
                    "theta3": "4",
                    "theta5": "4",
                    "chi1": "12",
                },
            ),
            "xi": (
                ("xi1", "xi2"),
                {
                    "1": "4",
                    "xi1": "2",
                    "xi2": "2",
                    "theta2": "12",
                    "chi2": "4",
                    "chi4": "4",
                },
            ),
            "theta_odd": (
                ("theta1", "theta3", "theta5"),
                {
                    "eta1": "1",
                    "eta2": "1",
                    "theta1": "2",
                    "theta3": "2",
                    "theta5": "2",
                    "chi1": "6",
                },
            ),
            "theta_even": (
                ("theta2", "theta4"),
                {"1": "-2", "xi1": "7", "xi2": "7", "theta2": "2", "theta4": "2"},
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "theta2": "4", "theta4": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1", "chi3"),
                {"eta1": "5", "eta2": "5", "chi1": "2", "chi3": "2"},
            ),
            "chi_even": (
                ("chi2", "chi4"),
                {
                    "1": "2",
                    "xi1": "1",
                    "xi2": "1",
                    "theta2": "6",
                    "chi2": "2",
                    "chi4": "2",
                },
            ),
        },
        "right": {
            "eta": (
                ("eta1", "eta2"),
                {
                    "1": "10",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "psi": "14",
                },
            ),
            "xi": (
                ("xi1", "xi2"),
                {"xi1": "2", "xi2": "2", "theta1": "10", "chi1": "4", "chi3": "4"},
            ),
            "theta_odd": (
                ("theta1", "theta3", "theta5"),
                {"xi1": "6", "xi2": "6", "theta1": "2", "theta3": "2", "theta5": "2"},
            ),
            "theta_even": (
                ("theta2", "theta4"),
                {
                    "1": "5",
                    "eta1": "1",
                    "eta2": "1",
                    "theta2": "2",
                    "theta4": "2",
                    "psi": "7",
                },
            ),
            "psi": (
                ("psi",),
                {
                    "1": "-2",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "psi": "2",
                },
            ),
            "chi_odd": (
                ("chi1", "chi3"),
                {"xi1": "1", "xi2": "1", "chi1": "16/3", "chi3": "2"},
            ),
            "chi_even": (
                ("chi2", "chi4"),
                {"1": "2", "eta1": "6", "eta2": "6", "chi2": "2", "chi4": "2"},
            ),
        },
    },
    13: {
        "left": {
            "eta": (
                ("eta1", "eta2"),
                {
                    "eta1": "2",
                    "eta2": "2",
                    "theta1": "4",
                    "theta3": "4",
                    "theta5": "4",
                    "chi1": "14",
                },
            ),
            "xi": (
                ("xi1", "xi2"),
                {
                    "1": "4",
                    "xi1": "2",
                    "xi2": "2",
                    "theta2": "14",
                    "chi2": "4",
                    "chi4": "4",
                },
            ),
            "theta_odd": (
                ("theta1", "theta3", "theta5"),
                {
                    "eta1": "1",
                    "eta2": "1",
                    "theta1": "2",
                    "theta3": "2",
                    "theta5": "2",
                    "chi1": "7",
                },
            ),
            "theta_even": (
                ("theta2", "theta4", "theta6"),
                {
                    "1": "-2",
                    "xi1": "8",
                    "xi2": "8",
                    "theta2": "2",
                    "theta4": "2",
                    "theta6": "2",
                },
            ),
            "psi": (
                ("psi",),
                {"1": "-2", "theta2": "4", "theta4": "4", "theta6": "4", "psi": "2"},
            ),
            "chi_odd": (
                ("chi1", "chi3", "chi5"),
                {"eta1": "6", "eta2": "6", "chi1": "2", "chi3": "2", "chi5": "2"},
            ),
            "chi_even": (
                ("chi2", "chi4"),
                {
                    "1": "2",
                    "xi1": "1",
                    "xi2": "1",
                    "theta2": "7",
                    "chi2": "2",
                    "chi4": "2",
                },
            ),
        },
        "right": {
            "eta": (
                ("eta1", "eta2"),
                {
                    "1": "12",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "theta6": "4",
                    "psi": "16",
                },
            ),
            "xi": (
                ("xi1", "xi2"),
                {
                    "xi1": "2",
                    "xi2": "2",
                    "theta1": "12",
                    "chi1": "4",
                    "chi3": "4",
                    "chi5": "4",
                },
            ),
            "theta_odd": (
                ("theta1", "theta3", "theta5"),
                {"xi1": "7", "xi2": "7", "theta1": "2", "theta3": "2", "theta5": "2"},
            ),
            "theta_even": (
                ("theta2", "theta4", "theta6"),
                {
                    "1": "6",
                    "eta1": "1",
                    "eta2": "1",
                    "theta2": "2",
                    "theta4": "2",
                    "theta6": "2",
                    "psi": "8",
                },
            ),
            "psi": (
                ("psi",),
                {
                    "1": "-2",
                    "eta1": "2",
                    "eta2": "2",
                    "theta2": "4",
                    "theta4": "4",
                    "theta6": "4",
                    "psi": "2",
                },
            ),
            "chi_odd": (
                ("chi1", "chi3", "chi5"),
                {"xi1": "1", "xi2": "1", "chi1": "6", "chi3": "2", "chi5": "2"},
            ),
            "chi_even": (
                ("chi2", "chi4"),
                {"1": "2", "eta1": "7", "eta2": "7", "chi2": "2", "chi4": "2"},
            ),
        },
    },
}
