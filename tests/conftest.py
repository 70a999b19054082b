"""Settings shared by every test module."""
from hypothesis import settings

# Every property test draws its examples afresh (no example database) and has
# no deadline: the Monte Carlo examples vary too much in run time for one.
settings.register_profile("shiftdecon", deadline=None, database=None)
settings.load_profile("shiftdecon")
