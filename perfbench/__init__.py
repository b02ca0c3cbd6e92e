"""End-to-end transaction-service benchmark (entry point: ``run.py``)."""
