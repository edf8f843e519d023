"""Knowledge functions as color vocabularies over the light spectrum.

Wavelength buckets are the experiences; color names are discrete concepts.
A speaker who has never seen a wavelength maps it to the zero concept.  Two
vocabularies can disagree: one splits blue from green, the other names both
with a single word, as some languages historically did.
"""

import numpy as np

from epidyn import (
    DiscreteConcepts,
    KnowledgeFunction,
    KnowledgeSetting,
    function_from_json,
    knowledge_distance,
    usage_penalty,
)

COLORS = ("none", "purple", "blue", "green", "yellow", "red")
wavelengths = np.arange(380.0, 1001.0, 10.0)
setting = KnowledgeSetting(
    wavelengths[:, None],
    DiscreteConcepts([[float(i)] for i in range(len(COLORS))], labels=COLORS),
)


def vocabulary(bands):
    values = np.zeros((len(wavelengths), 1))
    for name, (lo, hi) in bands.items():
        values[(wavelengths >= lo) & (wavelengths < hi)] = float(COLORS.index(name))
    return KnowledgeFunction(setting, values)


fine = vocabulary(
    {
        "purple": (380, 430),
        "blue": (430, 520),
        "green": (520, 565),
        "yellow": (565, 610),
        "red": (610, 750),
    }
)
# one word covers blue and green
coarse = vocabulary(
    {
        "purple": (380, 430),
        "green": (430, 565),
        "yellow": (565, 610),
        "red": (610, 750),
    }
)

print(__doc__)


def name_of(f, nm):
    e = int(np.flatnonzero(wavelengths == nm)[0])
    idx = setting.concepts.index_of(f.evaluate(e)[None, :])[0]
    return COLORS[idx]


for nm in (400.0, 470.0, 540.0, 700.0, 900.0):
    fine_name, coarse_name = name_of(fine, nm), name_of(coarse, nm)
    seen = "conceptualized" if fine.conceptualizes(
        int(np.flatnonzero(wavelengths == nm)[0])
    ) else "not conceptualized"
    print(f"{nm:5.0f} nm: fine={fine_name:7s} coarse={coarse_name:7s} ({seen})")

print()
print(f"vocabulary distance: {knowledge_distance(fine, coarse):.3f}")
print(f"distinct-concept penalty, fine vocabulary:   {usage_penalty(fine.values, setting.concepts):.0f}")
print(f"distinct-concept penalty, coarse vocabulary: {usage_penalty(coarse.values, setting.concepts):.0f}")

round_trip = function_from_json(fine.to_json())
print(f"JSON round trip preserves the table: {np.array_equal(round_trip.values, fine.values)}")
