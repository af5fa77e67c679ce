"""Test oracles: retained reference implementations the differential
tests race the shipped code against, and checkers the tests hold the
shipped code's output to.  Kept out of the ``repro`` package on purpose
— nothing at runtime may depend on them."""
