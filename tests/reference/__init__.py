"""Reference implementations the differential tests compare against.

Each module keeps an earlier, straightforward version of a component
whose ``src/`` implementation now skips work; the tests require both to
produce byte-identical output.
"""
