% Clause file for the run invocations of the cli_small workload.
app([], L, L).
app([H|T], L, [H|R]) :- app(T, L, R).
