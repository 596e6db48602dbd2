% Ground facts for clause tries against facts: goals with repeated
% variables, nested ground heads, literals of every kind, functions that
% forget their argument's type (see facts.sig), and user constants whose
% types are closed (red, t3(red, red, red)) or open (nil3); run with
% --types tests/data/color_tri.t.
edge(n0, n1).
edge(n0, n2).
edge(n1, n1).
edge(n1, n3).
edge(n2, n3).
edge(n2, n2).
edge(n3, n4).
edge(n4, n5).
edge(n4, n4).
edge(n5, n6).
edge(n6, n7).
edge(n7, n7).
path(X, Y) :- edge(X, Y).
path(X, Z) :- edge(X, Y), path(Y, Z).
pair(p(1, 2), p(2, 1)).
pair(p(1, 2), p(1, 2)).
pair(p(3, 3), p(3, 3)).
pair(p(4, 5), p(4, 5)).
nest(f(g(a, b), [1, 2])).
nest(f(g(a, a), [1, 2])).
nest(f(g(b, a), [3])).
nest(f(g(a, b), [1, 2, 3])).
nest(f(g(a, b), [2, 1])).
val(1).
val(1.0).
val("1").
val(one).
val(2).
lit([1, 2]).
lit([1.0, 2.0]).
lit(["1", "2"]).
lit([1, 2, 3]).
forget(h(1)).
forget(h(1.0)).
forget(h("1")).
forget(h(1)).
forget(h(k(1, 2))).
shape(t3(red, red, red)).
shape(t3(red, green, blue)).
shape(nil3).
shape(t3(blue, blue, blue)).
shape(t3(nil3, nil3, nil3)).
shape(t3(1, 1, 1)).
shape(t3(t3(red, red, red), t3(red, red, red), t3(red, red, red))).
tone(red, t3(red, red, red)).
tone(green, t3(green, green, green)).
tone(blue, t3(blue, blue, blue)).
tone(red, nil3).
