"""Block size of the trial harness, and the memory a block may hold.

numpy-free, so the command line can size glibc's heap pad from these
figures before numpy loads (see ``sortlab.report.cli``).
"""

__all__ = ["BLOCK_VALUES", "BYTES_PER_VALUE"]

#: Most array values one kernel call holds.  A cell's trials run in blocks
#: of at most this many values (at least one trial each), and a share's
#: trial seeds are hashed in passes of at most BLOCK_VALUES // 8 trials
#: (32 bytes of words each, so 4 per value), so memory stays bounded
#: whatever the trial count.
BLOCK_VALUES = 1 << 18

#: Peak bytes per value of BLOCK_VALUES while a share runs.  A block is
#: counted while its int64 values (8) and its pass's seed words (at most
#: 4) are held; a kernel alone peaks at textbook 26-38, exchange 3-21 and
#: inversions 13-17 (tracemalloc, 262 x 1000 geometric blocks, p =
#: 0.001-0.9).  A hashing pass peaks at about 165 bytes a trial, 21 per
#: value, between blocks.  Whole runs by tracemalloc, p = 0.001-0.9: at
#: most 46 on one 262 x 1000 block, at most 57 with full passes (n = 8
#: and 100, BLOCK_VALUES = 2**15, 4 passes), and 28 at n = 1.  Tracemalloc
#: tests pin a whole block of each mode, and a run at n = 1, within this
#: figure.  The command line's glibc heap pad, BLOCK_VALUES *
#: BYTES_PER_VALUE (about 18.9 MB), is derived from it.
BYTES_PER_VALUE = 72
