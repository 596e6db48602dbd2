% A forward-only graph on n0..n11 and its paths.
edge(n0, n1).
edge(n0, n2).
edge(n1, n3).
edge(n1, n4).
edge(n2, n4).
edge(n2, n5).
edge(n3, n6).
edge(n4, n6).
edge(n4, n7).
edge(n5, n7).
edge(n5, n8).
edge(n6, n9).
edge(n7, n9).
edge(n7, n10).
edge(n8, n10).
edge(n9, n11).
edge(n10, n11).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
weight(n0, 3).
weight(n1, 1).
weight(n2, 4).
label(n0, "start").
label(n11, "end").
