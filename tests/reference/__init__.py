"""Reference implementations the differential tests compare against.

Each module keeps a straightforward version of a component whose
``src/`` implementation skips work: ``easy_backfill`` the exhaustive
EASY body, ``replay`` the whole replay loop without memos or fast
paths, ``scan`` the one-match-at-a-time scan walk and the scanning
policies written on it.  The tests require each to produce
byte-identical output.
"""
