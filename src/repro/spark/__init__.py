"""Spark (distributed dataflow) parts of the reproduction.

``apsp_spark`` fans the APSP Dijkstras out over Spark tasks, the one Spark
job of PAR-TDBHT (``pipeline``); its rows are bit-identical to the
driver's ``repro.graphs.shortest_paths.apsp``. Every other step, the
correlation matrix included, runs on the driver.
"""
