# Adds bench/serve_layers to the top-level build without editing it:
#
#   cmake -S . -B <dir> -DCMAKE_PROJECT_hotspot_forecast_INCLUDE=<repo>/bench/serve_layers/in_root_build.cmake
#   cmake --build <dir> --target bench_serve_layers
#
# CMake includes this file right after the top-level project() call. The
# deferred include of this directory's CMakeLists.txt runs once the
# top-level CMakeLists.txt is done, in its scope, so the benchmark compiles
# with the flags tier-1 builds with (language level, warnings,
# optimisation, HOTSPOT_SANITIZE) and links the same hotspot target.
# Once bench/CMakeLists.txt adds add_subdirectory(serve_layers) this file
# is no longer needed.
#
# The path is kept in a variable of its own: by the time the deferred call
# runs, CMAKE_CURRENT_LIST_DIR names the top-level directory.
set(BENCH_SERVE_LAYERS_LISTS "${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt")
cmake_language(DEFER DIRECTORY "${CMAKE_SOURCE_DIR}" CALL include
               "${BENCH_SERVE_LAYERS_LISTS}")
