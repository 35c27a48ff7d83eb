"""Package metadata; this file is its only copy.

It is a ``setup.py`` so that ``pip install -e .`` works in offline
environments that lack the ``wheel`` package (legacy editable installs
via ``--no-use-pep517`` need one).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
)
