"""The README's code runs as written, so an API change cannot leave it stale."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    section = README.read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, f"{README} (Library example)", "exec"), namespace)
    assert len(namespace["frontier"]) == 20
    assert 0.0 <= namespace["eu"] <= 1.0
    tent, episodes = namespace["tent"], namespace["tent_episodes"]
    assert len(episodes) == 50
    for r in episodes:
        assert type(r.seed_action) is float and type(r.decision) is float
        assert 0.0 <= r.decision <= 1.0
        assert r.utility == tent(r.world, r.decision)
        assert r.seed_utility == tent(r.world, r.seed_action)
