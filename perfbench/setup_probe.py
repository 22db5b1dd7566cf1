"""Set-up cost in a fresh interpreter: import pgroupoid and load the inputs.

    python3 -I perfbench/setup_probe.py SRC_DIR LISTING

Loading a PGD file means `parse_pgd` with validation plus the first
`products_from` call; a CAT file is parsed.  Prints elapsed seconds.
"""
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from pgroupoid import formats  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as listing:
    paths = listing.read().split("\n")
for path in paths:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if path.endswith(".cat"):
        formats.parse_cat(text)
        continue
    model = formats.parse_pgd(text)
    if model.edges:
        model.products_from(sorted(model.edges)[0])
print(time.perf_counter() - t0)
