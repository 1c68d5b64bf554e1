"""netsom: growth-model networks, SOM node categorization, and per-category
analysis of epidemic and game dynamics, with SVG figure output."""

__version__ = "0.1.0"

from .graph import Graph, build_graph, load_edge_list, save_edge_list
from .generators import generate_cnn, generate_hk
from .metrics import (FEATURE_NAMES, NodeFeatures, compute_all,
                      compute_avg_neighbor_degree, compute_clustering,
                      degree_assortativity, read_features_csv,
                      write_features_csv)
from .som import (CellAssignment, CellStats, SomGrid, assign_nodes,
                  cell_stats, load_som_json, normalize_features,
                  quantization_error, save_som_json, train_som)
from .simtrace import SimTrace, read_trace_csv, write_trace_csv
from .sir import init_sir, run_sir
from .spd import init_spd, play_round, run_spd, update_strategies
from .render import (default_palette, ramp_color, render_heatmaps,
                     render_pie_lattice, render_timeline)
from .pipeline import full_run, derive_seed

__all__ = [
    "Graph", "build_graph", "load_edge_list", "save_edge_list",
    "generate_hk", "generate_cnn",
    "FEATURE_NAMES", "NodeFeatures", "compute_all",
    "compute_avg_neighbor_degree", "compute_clustering", "degree_assortativity",
    "read_features_csv", "write_features_csv",
    "SomGrid", "CellAssignment", "CellStats", "normalize_features",
    "train_som", "assign_nodes", "cell_stats",
    "quantization_error", "save_som_json", "load_som_json",
    "SimTrace", "read_trace_csv", "write_trace_csv",
    "init_sir", "run_sir",
    "init_spd", "play_round", "update_strategies", "run_spd",
    "render_heatmaps", "render_pie_lattice", "render_timeline",
    "ramp_color", "default_palette",
    "full_run", "derive_seed",
]
