"""Package configuration.

Kept as a plain ``setup.py`` (not pyproject.toml) so that
``pip install -e .`` works in offline environments lacking the ``wheel``
package (pip falls back to ``setup.py develop``).

numpy is the array substrate of ``graphs/csr.py`` and
``core/kernels.py``; scipy provides the sparse-matmul witness join of
the ``csr`` backend (and of ``native`` when no C toolchain is present).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.2.0",
    description=(
        "Reproduction of Korula & Lattanzi, 'An efficient "
        "reconciliation algorithm for social networks' (PVLDB 2014)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # Matches the CI test matrix (3.11/3.12) — don't advertise untested
    # floors.
    python_requires=">=3.11",
    install_requires=[
        "numpy>=1.23",
        "scipy>=1.8",
    ],
    extras_require={
        "test": [
            "pytest",
            "pytest-benchmark",
            "hypothesis",
            "networkx",
        ],
    },
    entry_points={
        "console_scripts": ["repro = repro.cli:main"],
    },
)
