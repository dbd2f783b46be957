"""File formats, embedded reference data, figures, and the command line."""
