"""Builds the optional compiled kernel lane: python3 setup.py build_ext --inplace"""

from setuptools import Extension, setup

setup(ext_modules=[Extension("opfold._corec", ["src/opfold/_corec.c"])])
