"""One receding-horizon plan, inspected: commands, trajectories, solver stats.

Run:  python3 demos/03_one_day_plan.py
"""

import numpy as np

from offgrid import SolverOptions, build_scenario, default_config, plan, synthesize_weather
from offgrid.plant import initial_plant_state

config = default_config().replace(horizon_steps=36)  # 6 h lookahead
weather = synthesize_weather(2, "clear", seed=1)
scenario = build_scenario(weather, config, days=1)

# plan at 17:00: lights start at 18:00, fans at 21:00, sun is going down
k = 17 * 6
state = initial_plant_state(config)
forecast = scenario.forecast(k, config.horizon_steps)
p = plan(state, forecast, config, SolverOptions(rel_gap_limit=0.01, time_limit=10.0))

s = p.solver
print(f"solver: {s.status}, objective {s.objective:.1f}, bound {s.best_bound:.1f}, "
      f"gap {s.rel_gap:.2%}, {s.nodes_explored} nodes, {s.wall_time * 1000:.0f} ms")
print(f"{'t+min':>6} {'u_fr':>4} {'u_s':>3} {'gamma':>7} {'E_bat':>7} {'T_fr':>6} {'PV Wh':>6}")
for i in range(0, len(p.u_fr), 3):
    print(f"{10 * i:6d} {p.u_fr[i]:4d} {p.u_s[i]:3d} {p.gamma[i]:7.3f} "
          f"{p.predicted_e_bat[i]:7.0f} {p.predicted_t_fr[i]:6.2f} "
          f"{forecast.g_avail_wh[i]:6.1f}")

print("\nthe first command is what reaches the plant:", p.first)
print("slack total over horizon:", np.round(p.slack.sum(), 4), "degC-steps")
