"""Builds the optional compiled kernel lane: python3 setup.py build_ext --inplace"""

from setuptools import Extension, find_packages, setup

setup(package_dir={"": "src"}, packages=find_packages("src"),
      ext_modules=[Extension("opfold._corec", ["src/opfold/_corec.c"])])
