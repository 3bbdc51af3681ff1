from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    """Build the compiled kernels if possible; the package falls back to
    the pure-Python implementations when the extension is unavailable."""

    def run(self):
        try:
            super().run()
        except Exception as exc:  # noqa: BLE001
            print(f"warning: skipping compiled kernels ({exc}); using pure-Python fallback")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:  # noqa: BLE001
            print(f"warning: failed to build {ext.name} ({exc}); using pure-Python fallback")


setup(
    ext_modules=[
        Extension(
            "gridknot._kernels._fast",
            ["src/gridknot/_kernels/_fast.c"],
            extra_compile_args=["-O2"],
        )
    ],
    cmdclass={"build_ext": OptionalBuildExt},
)
