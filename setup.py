"""Builds the optional compiled kernel lane: python3 setup.py build_ext --inplace"""

from setuptools import Extension, find_packages, setup

# Loops start on 32-byte boundaries, so the fold kernel's accumulate loop
# keeps its speed wherever the rest of the module moves it: with gcc 12's
# default alignment, adding one function ahead of it slowed fold_multiply
# at m = 1024, k = 5 by ~12% on a 2-CPU x86-64 host. The extension depends
# on this file, so a change to its flags recompiles it on the next
# build_ext --inplace. The extension is optional: where it does not build
# (no compiler, or no 64-bit gcc or clang for its unsigned __int128),
# build_ext warns and the package installs with the pure-Python lane.
setup(package_dir={"": "src"}, packages=find_packages("src"),
      ext_modules=[Extension("opfold._corec", ["src/opfold/_corec.c"],
                             extra_compile_args=["-falign-loops=32"],
                             depends=["setup.py"], optional=True)])
