"""The paper's experiments, one module each; :mod:`.table` lists them.

Each entry module runs one experiment at its pinned seeds, says what it
prints and checks its paper claims (:mod:`.harness`).  Importing one
entry (perfbench imports :mod:`.fig10`) loads only that entry.
"""
