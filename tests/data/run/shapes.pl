% Facts whose arguments have open types ([] and nil3), closed types, and none.
q([], 1).
q([], 2).
q([1], 3).
q([[]], 4).
p([], []).
p([], []).
r(nil3).
r(t3(1, 1, 1)).
r(t3(red, green, blue)).
r(nil3).
s(t3(nil3, nil3, nil3)).
k(red).
k(green).
k(blue).
m(X, [X]).
m(X, [X, X]).
