"""Setup script (the single home of the project metadata).

The offline environment this repository targets has no network access, so
``pip``'s isolated PEP 517 builds (which try to download ``setuptools`` and
``wheel``) cannot run.  This ``setup.py`` keeps the classic editable install
working instead::

    pip install -e . --no-build-isolation --no-use-pep517

The package ships a ``py.typed`` marker (PEP 561): downstream consumers get
the type annotations checked by the CI ``lint`` job (``mypy`` over ``core/``,
``planner/``, ``exec/`` — see ``mypy.ini``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Efficient Massively Parallel Join Optimization for "
        "Large Queries' (MPDP, SIGMOD 2022)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.10",
    install_requires=["numpy"],
    classifiers=[
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.10",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Typing :: Typed",
    ],
    entry_points={
        "console_scripts": [
            "repro-plan=repro.planner.cli:main",
            "repro-lint=repro.analysis.lint.cli:main",
        ],
    },
)
