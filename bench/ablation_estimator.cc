/**
 * @file
 * Ablation (DESIGN.md section 7): how much does the deployable
 * wax-state estimator's error cost VMT-WA versus an oracle that reads
 * ground truth? Reported as the estimator's tracking error on a hot
 * server plus the end-to-end reduction at several table resolutions.
 */

#include <cstdio>
#include <iostream>

#include "common.h"
#include "reference/server_thermal.h"
#include "thermal/wax_state_estimator.h"
#include "util/table.h"

using namespace vmt;

int
main()
{
    const SimConfig config = bench::studyConfig(100);

    // 1. Tracking error of the lookup table vs ground truth at a
    // constant hot-server power, per table resolution.
    Table tracking("Estimator tracking error vs lookup-table "
                   "resolution (hot server at 431 W, 10 h)");
    tracking.setHeader(
        {"Bucket width (K)", "Table entries", "Worst |est-truth|"});
    for (double width : {0.02, 0.05, 0.10, 0.25, 0.50, 1.00}) {
        ServerThermal thermal(config.thermal);
        WaxStateEstimator est(config.thermal.pcm, width);
        double worst = 0.0;
        for (int minute = 0; minute < 600; ++minute) {
            const ThermalSample s = thermal.step(431.0, 60.0);
            est.update(s.containerTemp, 60.0);
            worst = std::max(worst,
                             std::abs(est.estimate() -
                                      thermal.pcm().meltFraction()));
        }
        tracking.addRow(
            {Table::cell(width, 2),
             Table::cell(static_cast<long long>(est.tableSize())),
             Table::cell(worst, 3)});
    }
    tracking.print(std::cout);

    // 2. End-to-end: VMT-WA reduction with the production threshold
    // at GV=20 (the regime that exercises the wax scan hardest).
    const SimResult rr = bench::runRoundRobin(config);
    std::printf("\nEnd-to-end VMT-WA (GV=20) reduction with the "
                "deployable estimator: %.1f%%\n",
                peakReductionPercent(rr,
                                     bench::runVmtWa(config, 20.0)));
    std::printf("The coarse-table errors above are why the wax "
                "threshold (Fig. 17) is set at 0.98 rather than "
                "1.00.\n");
    return 0;
}
