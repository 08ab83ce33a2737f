import sys
from .cli_io import main
sys.exit(main())
