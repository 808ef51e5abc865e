"""Smoke tests for the IR DOT printer."""

from repro.ir import Builder, Domain, to_dot


def sample_module():
    b = Builder("demo")
    h = b.input("h", Domain.VERTEX, (4,))
    w = b.param("w", (4, 2))
    y = b.apply("linear", h, params=[w])
    e = b.scatter("copy_u", u=y)
    b.output(b.gather("sum", e))
    return b.build()


class TestDot:
    def test_valid_digraph(self):
        m = sample_module()
        dot = to_dot(m)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for node in m.nodes:
            assert node.name in dot

    def test_expensive_marker(self):
        dot = to_dot(sample_module())
        assert "($$)" in dot  # the linear projection
