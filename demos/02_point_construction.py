"""The deterministic unpredictable point i*.

Level r of the construction is the list of all r-bit strings in counting
order. The point interleaves them around the origin: strings at even list
positions go left, strings at odd positions go right, so every finite
pattern of every length appears somewhere on each side. A closed form
locates the symbol at any index without building the prefix.
"""

from unpredictable import family, point_symbol, point_window

for level in (1, 2, 3):
    print(f"level {level}:", " ".join(family(level)))

w = point_window(-8, 17)
text = "".join(str(int(v)) for v in w.symbols)
print("\nindices -8..8:", text[:8], ".", text[8:])

# the right side concatenates strings 0, 00, 10, 000, 010, ... in order
print("right of origin:", "".join(str(int(point_symbol(k)))
                                  for k in range(12)))
print("left of origin: ", "".join(str(int(point_symbol(-k)))
                                  for k in range(1, 13)))

# any index is cheap, even far out where no prefix could be materialized
far = 10**8
print(f"\nsymbol at {far:+d}: {int(point_symbol(far))}")
print(f"symbol at {-far:+d}: {int(point_symbol(-far))}")
