# ccbench end to end over a stub catalog (see tools/CMakeLists.txt).
#
#   cmake -DCCBENCH=<ccbench> -DSTUBS=<catalog dir> -DBASELINE=<dir>
#         -DWORK=<work dir> -P ccbench_stub_catalog.cmake
#
# STUBS holds a_pass (writes a result file recording $CCACHE_JOBS),
# b_exit3 (exits 3) and c_segv (dies on SIGSEGV). BASELINE holds the
# result a_pass writes at --inner-jobs 3. The --list case builds its
# own stub directory under WORK.

function(expect_match text regex what)
    if(NOT text MATCHES "${regex}")
        message(FATAL_ERROR "${what}: no match for '${regex}' in:\n${text}")
    endif()
endfunction()

file(REMOVE_RECURSE ${WORK})

# Full catalog: both failures are reported, the passing stub's result
# is written with CCACHE_JOBS = --inner-jobs, and ccbench exits 1.
execute_process(
    COMMAND ${CCBENCH} -j2 --inner-jobs 3 --bin-dir ${STUBS}
        --results ${WORK}/all --baseline ${BASELINE}
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 1)
    message(FATAL_ERROR "full catalog: want exit 1, got ${rc}\n${out}${err}")
endif()
expect_match("${out}" "ccbench: 3 benches, 2 jobs \\(inner sweeps: 3\\)"
             "full catalog")
expect_match("${out}" "ok +a_pass " "full catalog")
expect_match("${out}" "FAIL +b_exit3 +exit 3 " "full catalog")
expect_match("${out}" "FAIL +c_segv +exit 139 " "full catalog")
expect_match("${out}" "2 bench\\(es\\) FAILED" "full catalog")
if(NOT EXISTS ${WORK}/all/a_pass.json)
    message(FATAL_ERROR "full catalog: a_pass.json was not written")
endif()
file(READ ${WORK}/all/a_pass.json result)
expect_match("${result}" "\"inner_jobs\": 3}" "a_pass.json")

# A filtered run spawns only the matching stub, gates it against the
# baseline and exits 0.
execute_process(
    COMMAND ${CCBENCH} -j2 --inner-jobs 3 --bin-dir ${STUBS}
        --results ${WORK}/filtered --baseline ${BASELINE} --filter "^a_"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--filter '^a_': want exit 0, got ${rc}\n${out}${err}")
endif()
expect_match("${out}" "ccbench: 1 benches" "--filter '^a_'")
expect_match("${out}" "match +a_pass " "--filter '^a_'")
if(out MATCHES "b_exit3|c_segv" OR EXISTS ${WORK}/filtered/b_exit3.log OR
   EXISTS ${WORK}/filtered/c_segv.log)
    message(FATAL_ERROR "--filter '^a_' ran an unselected stub:\n${out}")
endif()

# --list spawns each bench with --describe from an argv, not through a
# shell, so a bench directory whose name holds a space still shows the
# description.
set(list_dir "${WORK}/list stubs")
file(WRITE ${WORK}/list_src/d_describe [=[#!/bin/sh
if [ "$1" = --describe ]; then
    echo "stub that describes itself"
fi
]=])
file(COPY ${WORK}/list_src/d_describe DESTINATION "${list_dir}"
    FILE_PERMISSIONS OWNER_READ OWNER_WRITE OWNER_EXECUTE GROUP_READ
        GROUP_EXECUTE WORLD_READ WORLD_EXECUTE)
execute_process(
    COMMAND ${CCBENCH} --list --bin-dir "${list_dir}"
    RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "--list: want exit 0, got ${rc}\n${out}${err}")
endif()
expect_match("${out}" "d_describe +stub that describes itself" "--list")
message(STATUS "ccbench isolated both failing stubs; --filter ran only "
               "a_pass; --list described a stub under a spaced path")
