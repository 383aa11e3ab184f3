"""Regression: objects of fields nested inside fields get memory SSA.

A struct array inside a heap struct gives field-of-field objects
(``malloc.f1.f1`` below). A store through such an object in a caller
must reach a load of it in a callee; when only the first level of
fields counted as pointer-carrying, the load got no mu and an empty
points-to set.
"""

from repro.andersen import run_andersen
from repro.frontend import compile_source
from repro.fsam import FSAM
from repro.interp import Interpreter
from repro.memssa.builder import pointer_carrying_objects

SOURCE = """
struct cell { int qp; int *coeffs; };
struct frame { int num; struct cell cells[4]; };

int *peek(struct cell *c) {
  int *v;
  v = c->coeffs;
  return v;
}

int main() {
  struct frame *fr;
  struct cell *c;
  int *r;
  int i;
  fr = malloc(struct frame);
  for (i = 0; i < 4; i = i + 1) {
    c = &fr->cells[i];
    c->coeffs = malloc(int);
    r = peek(c);
  }
  return 0;
}
"""


def test_nested_field_object_is_pointer_carrying():
    module = compile_source(SOURCE)
    relevant = pointer_carrying_objects(module, run_andersen(module))
    assert any(obj.base is not None and obj.base.base is not None
               for obj in relevant)


def test_callee_load_of_nested_field_is_sound():
    module = compile_source(SOURCE)
    interp = Interpreter(module, seed=0, max_steps=20000)
    interp.run()
    # The only pointer load is `v = c->coeffs` in peek().
    observed = interp.observations
    assert observed, "the interpreter saw no load of c->coeffs"
    result = FSAM(module).run()
    for o in observed:
        static = {t.name for t in result.pts(o.load.dst)}
        assert o.target.name in static, (
            f"load {o.load!r} observed {o.target.name}, static pts = {sorted(static)}")
