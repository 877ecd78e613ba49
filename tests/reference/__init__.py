"""Reference implementations the differential tests compare against.

Each module keeps a straightforward version of a component whose
``src/`` implementation skips work: ``easy_backfill`` the exhaustive
EASY body, ``replay`` the whole replay loop without memos or fast
paths.  The tests require both to produce byte-identical output.
"""
