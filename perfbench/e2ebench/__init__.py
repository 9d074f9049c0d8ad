"""End-to-end e-cash benchmark: loopback daemons, open/closed-loop load, tracing.

Run it through ``perfbench/run.py``; ``perfbench/README.md`` documents the
workloads, the metrics and how each layer metric maps onto an end-to-end one.
"""
