"""Shared constants for the 16-bit IPID value space, 32-bit tick timestamps
and the largest rate that is analysed term by term."""

IPID_BITS = 16
IPID_SPACE = 1 << IPID_BITS  # 65536 possible identifier values
IPID_MASK = IPID_SPACE - 1

TICK_BITS = 32
TICK_MASK = (1 << TICK_BITS) - 1

# Largest rate given a truncated Poisson window in ``distribution`` (about
# 5e6 cells wide there). Past it P(N <= 2^16) is 0 in double precision:
# a collision is certain, and ``montecarlo`` does not draw.
MAX_WINDOW_RATE = 2.0**32
