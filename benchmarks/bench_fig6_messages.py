"""Figure 6: messages sent per shuffle period, ranked by trust degree.

Paper claims reproduced here: the system-wide average is 2 messages per
node per shuffle period (one request sent, one response on average);
nodes with larger overlay degree answer more shuffle requests and thus
send more messages.
"""

import numpy as np

from repro.experiments import figure6, figure_table

from conftest import SEED, WORKERS, emit


class TestFigure6:
    def test_bench_message_overhead(self, benchmark, scale, results_dir):
        def run():
            return figure6(
                scale, seed=SEED, fs=(1.0, 0.5), alpha=0.5, workers=WORKERS
            )

        results = benchmark.pedantic(run, rounds=1, iterations=1)
        for record in results:
            emit(results_dir, f"fig6_f{record['f']:g}", figure_table("fig6", [record]))

        for record in results:
            f = record["f"]
            # System-wide mean near 2 messages per period: 1 request per
            # node plus a response whenever the partner is online (the
            # paper's idealized count of exactly 2 assumes an always-
            # responsive partner).
            assert 1.3 < record["system_mean"] < 2.6, (
                f"system mean {record['system_mean']} far from 2 at f={f}"
            )
            rates = np.array(record["messages_per_period"])
            degrees = np.array(record["max_out_degree"])
            # Higher-degree nodes answer more requests: positive
            # correlation between overlay degree and message rate.
            correlation = np.corrcoef(degrees, rates)[0, 1]
            assert correlation > 0.2, (
                f"degree/message-rate correlation {correlation} at f={f}"
            )
            # The top-ranked (hub) node sends more than the median node.
            median_rate = float(np.median(rates))
            assert rates[0] > median_rate
